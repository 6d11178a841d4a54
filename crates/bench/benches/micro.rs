//! Criterion microbenchmarks for the native building blocks.
//!
//! These complement the table/figure harness bins with unit-level
//! costs: trampoline dispatch, code patching, the disassembler sweep,
//! and handler formatting. (They avoid enabling SUD or rewriting
//! shared libc sites, so they are safe to run repeatedly.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_raw_syscall(c: &mut Criterion) {
    c.bench_function("raw getpid syscall", |b| {
        b.iter(|| unsafe { black_box(syscalls::raw::syscall0(syscalls::nr::GETPID)) })
    });
    c.bench_function("raw ENOSYS syscall (nr 500)", |b| {
        b.iter(|| unsafe { black_box(syscalls::raw::syscall0(500)) })
    });
}

fn bench_trampoline_dispatch(c: &mut Criterion) {
    if !zpoline::Trampoline::environment_supported() {
        eprintln!("skipping trampoline benches: vm.mmap_min_addr != 0");
        return;
    }
    zpoline::Trampoline::install().expect("trampoline");
    // Passthrough dispatcher is the default.
    let call_through = |nr: u64| -> u64 {
        let ret: u64;
        unsafe {
            std::arch::asm!(
                "call rax",
                inlateout("rax") nr => ret,
                in("rdi") 0u64, in("rsi") 0u64, in("rdx") 0u64,
                in("r10") 0u64, in("r8") 0u64, in("r9") 0u64,
                out("rcx") _, out("r11") _,
            );
        }
        ret
    };
    let mut g = c.benchmark_group("trampoline");
    g.bench_function("dispatch getpid via call-rax (sled head)", |b| {
        b.iter(|| black_box(call_through(syscalls::nr::GETPID)))
    });
    g.bench_function("dispatch nr 500 via call-rax (sled tail)", |b| {
        b.iter(|| black_box(call_through(500)))
    });
    g.finish();
}

fn bench_patching(c: &mut Criterion) {
    if !zpoline::Trampoline::environment_supported() {
        return;
    }
    zpoline::Trampoline::install().expect("trampoline");
    // A dedicated page we re-patch each iteration (patch + restore).
    let page = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            4096,
            libc::PROT_READ | libc::PROT_WRITE | libc::PROT_EXEC,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
            -1,
            0,
        )
    } as *mut u8;
    assert!(!page.is_null());
    c.bench_function("patch_syscall_site (RWX page: VMA query, no mprotect)", |b| {
        b.iter(|| unsafe {
            page.write(0x0f);
            page.add(1).write(0x05);
            black_box(zpoline::patch_syscall_site(page as usize).unwrap());
        })
    });
}

fn bench_disasm(c: &mut Criterion) {
    // Sweep our own .text-sized synthetic buffer.
    let mut buf = vec![0u8; 64 * 1024];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = [0x90, 0x55, 0x48, 0x89, 0xe5, 0xc3, 0x0f, 0x05][i % 8];
    }
    let mut g = c.benchmark_group("disasm");
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("linear sweep 64KiB", |b| {
        b.iter(|| {
            black_box(zpoline::find_syscall_sites(0, &buf).sites.len());
        })
    });
    g.finish();
}

fn bench_handlers(c: &mut Criterion) {
    use interpose::{SyscallEvent, SyscallHandler};
    let counter = interpose::CountHandler::new();
    let policy = interpose::PolicyBuilder::allow_by_default()
        .deny(syscalls::nr::EXECVE)
        .deny_write_to_fd_at_or_above(100)
        .build();
    let mut g = c.benchmark_group("handlers");
    g.bench_function("CountHandler::handle", |b| {
        b.iter(|| {
            let mut ev = SyscallEvent::new(syscalls::SyscallArgs::nullary(
                syscalls::nr::GETPID,
            ));
            black_box(counter.handle(&mut ev));
        })
    });
    g.bench_function("PolicyHandler::handle", |b| {
        b.iter(|| {
            let mut ev = SyscallEvent::new(syscalls::SyscallArgs::new(
                syscalls::nr::WRITE,
                [1, 0, 64, 0, 0, 0],
            ));
            black_box(policy.handle(&mut ev));
        })
    });
    g.bench_function("format strace line", |b| {
        let mut buf = [0u8; 256];
        let call = syscalls::SyscallArgs::new(syscalls::nr::WRITE, [1, 0xdead, 64, 0, 0, 0]);
        b.iter(|| black_box(interpose::format_syscall_line(&call, 0x401000, &mut buf)));
    });
    g.finish();
}

fn configured() -> Criterion {
    // Short, 1-core-friendly defaults; override with criterion's own
    // CLI flags (e.g. `cargo bench -- --measurement-time 5`).
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_raw_syscall, bench_trampoline_dispatch, bench_patching, bench_disasm, bench_handlers
}
criterion_main!(benches);
