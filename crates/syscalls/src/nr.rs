//! x86-64 Linux syscall numbers.
//!
//! The constants below cover the standard x86-64 syscall table (as of
//! Linux 6.x). [`name`] maps a number back to its canonical name, which
//! the tracing interposers use to produce strace-like output.

macro_rules! syscall_table {
    ($(($nr:expr, $name:ident, $str:expr);)*) => {
        $(
            #[doc = concat!("`", $str, "` — syscall number ", stringify!($nr), ".")]
            pub const $name: u64 = $nr;
        )*

        /// Number → canonical name for every syscall in the table.
        ///
        /// Returns `None` for numbers outside the x86-64 table (including
        /// the paper's benchmark syscall 500).
        pub fn name(nr: u64) -> Option<&'static str> {
            match nr {
                $( $nr => Some($str), )*
                _ => None,
            }
        }

        /// Canonical name → number (the inverse of [`name`]).
        pub fn number(name: &str) -> Option<u64> {
            match name {
                $( $str => Some($nr), )*
                _ => None,
            }
        }

        /// All `(number, name)` pairs in the table, in numeric order.
        pub const TABLE: &[(u64, &str)] = &[ $( ($nr, $str), )* ];
    };
}

syscall_table! {
    (0, READ, "read");
    (1, WRITE, "write");
    (2, OPEN, "open");
    (3, CLOSE, "close");
    (4, STAT, "stat");
    (5, FSTAT, "fstat");
    (6, LSTAT, "lstat");
    (7, POLL, "poll");
    (8, LSEEK, "lseek");
    (9, MMAP, "mmap");
    (10, MPROTECT, "mprotect");
    (11, MUNMAP, "munmap");
    (12, BRK, "brk");
    (13, RT_SIGACTION, "rt_sigaction");
    (14, RT_SIGPROCMASK, "rt_sigprocmask");
    (15, RT_SIGRETURN, "rt_sigreturn");
    (16, IOCTL, "ioctl");
    (17, PREAD64, "pread64");
    (18, PWRITE64, "pwrite64");
    (19, READV, "readv");
    (20, WRITEV, "writev");
    (21, ACCESS, "access");
    (22, PIPE, "pipe");
    (23, SELECT, "select");
    (24, SCHED_YIELD, "sched_yield");
    (25, MREMAP, "mremap");
    (26, MSYNC, "msync");
    (27, MINCORE, "mincore");
    (28, MADVISE, "madvise");
    (29, SHMGET, "shmget");
    (30, SHMAT, "shmat");
    (31, SHMCTL, "shmctl");
    (32, DUP, "dup");
    (33, DUP2, "dup2");
    (34, PAUSE, "pause");
    (35, NANOSLEEP, "nanosleep");
    (36, GETITIMER, "getitimer");
    (37, ALARM, "alarm");
    (38, SETITIMER, "setitimer");
    (39, GETPID, "getpid");
    (40, SENDFILE, "sendfile");
    (41, SOCKET, "socket");
    (42, CONNECT, "connect");
    (43, ACCEPT, "accept");
    (44, SENDTO, "sendto");
    (45, RECVFROM, "recvfrom");
    (46, SENDMSG, "sendmsg");
    (47, RECVMSG, "recvmsg");
    (48, SHUTDOWN, "shutdown");
    (49, BIND, "bind");
    (50, LISTEN, "listen");
    (51, GETSOCKNAME, "getsockname");
    (52, GETPEERNAME, "getpeername");
    (53, SOCKETPAIR, "socketpair");
    (54, SETSOCKOPT, "setsockopt");
    (55, GETSOCKOPT, "getsockopt");
    (56, CLONE, "clone");
    (57, FORK, "fork");
    (58, VFORK, "vfork");
    (59, EXECVE, "execve");
    (60, EXIT, "exit");
    (61, WAIT4, "wait4");
    (62, KILL, "kill");
    (63, UNAME, "uname");
    (64, SEMGET, "semget");
    (65, SEMOP, "semop");
    (66, SEMCTL, "semctl");
    (67, SHMDT, "shmdt");
    (68, MSGGET, "msgget");
    (69, MSGSND, "msgsnd");
    (70, MSGRCV, "msgrcv");
    (71, MSGCTL, "msgctl");
    (72, FCNTL, "fcntl");
    (73, FLOCK, "flock");
    (74, FSYNC, "fsync");
    (75, FDATASYNC, "fdatasync");
    (76, TRUNCATE, "truncate");
    (77, FTRUNCATE, "ftruncate");
    (78, GETDENTS, "getdents");
    (79, GETCWD, "getcwd");
    (80, CHDIR, "chdir");
    (81, FCHDIR, "fchdir");
    (82, RENAME, "rename");
    (83, MKDIR, "mkdir");
    (84, RMDIR, "rmdir");
    (85, CREAT, "creat");
    (86, LINK, "link");
    (87, UNLINK, "unlink");
    (88, SYMLINK, "symlink");
    (89, READLINK, "readlink");
    (90, CHMOD, "chmod");
    (91, FCHMOD, "fchmod");
    (92, CHOWN, "chown");
    (93, FCHOWN, "fchown");
    (94, LCHOWN, "lchown");
    (95, UMASK, "umask");
    (96, GETTIMEOFDAY, "gettimeofday");
    (97, GETRLIMIT, "getrlimit");
    (98, GETRUSAGE, "getrusage");
    (99, SYSINFO, "sysinfo");
    (100, TIMES, "times");
    (101, PTRACE, "ptrace");
    (102, GETUID, "getuid");
    (103, SYSLOG, "syslog");
    (104, GETGID, "getgid");
    (105, SETUID, "setuid");
    (106, SETGID, "setgid");
    (107, GETEUID, "geteuid");
    (108, GETEGID, "getegid");
    (109, SETPGID, "setpgid");
    (110, GETPPID, "getppid");
    (111, GETPGRP, "getpgrp");
    (112, SETSID, "setsid");
    (118, GETRESUID, "getresuid");
    (120, GETRESGID, "getresgid");
    (124, GETSID, "getsid");
    (125, CAPGET, "capget");
    (126, CAPSET, "capset");
    (127, RT_SIGPENDING, "rt_sigpending");
    (128, RT_SIGTIMEDWAIT, "rt_sigtimedwait");
    (129, RT_SIGQUEUEINFO, "rt_sigqueueinfo");
    (130, RT_SIGSUSPEND, "rt_sigsuspend");
    (131, SIGALTSTACK, "sigaltstack");
    (137, STATFS, "statfs");
    (138, FSTATFS, "fstatfs");
    (140, GETPRIORITY, "getpriority");
    (141, SETPRIORITY, "setpriority");
    (144, SCHED_SETSCHEDULER, "sched_setscheduler");
    (145, SCHED_GETSCHEDULER, "sched_getscheduler");
    (157, PRCTL, "prctl");
    (158, ARCH_PRCTL, "arch_prctl");
    (160, SETRLIMIT, "setrlimit");
    (161, CHROOT, "chroot");
    (162, SYNC, "sync");
    (186, GETTID, "gettid");
    (188, SETXATTR, "setxattr");
    (189, LSETXATTR, "lsetxattr");
    (190, FSETXATTR, "fsetxattr");
    (191, GETXATTR, "getxattr");
    (192, LGETXATTR, "lgetxattr");
    (193, FGETXATTR, "fgetxattr");
    (194, LISTXATTR, "listxattr");
    (195, LLISTXATTR, "llistxattr");
    (196, FLISTXATTR, "flistxattr");
    (197, REMOVEXATTR, "removexattr");
    (198, LREMOVEXATTR, "lremovexattr");
    (199, FREMOVEXATTR, "fremovexattr");
    (200, TKILL, "tkill");
    (201, TIME, "time");
    (202, FUTEX, "futex");
    (203, SCHED_SETAFFINITY, "sched_setaffinity");
    (204, SCHED_GETAFFINITY, "sched_getaffinity");
    (213, EPOLL_CREATE, "epoll_create");
    (216, REMAP_FILE_PAGES, "remap_file_pages");
    (217, GETDENTS64, "getdents64");
    (218, SET_TID_ADDRESS, "set_tid_address");
    (228, CLOCK_GETTIME, "clock_gettime");
    (229, CLOCK_GETRES, "clock_getres");
    (230, CLOCK_NANOSLEEP, "clock_nanosleep");
    (231, EXIT_GROUP, "exit_group");
    (232, EPOLL_WAIT, "epoll_wait");
    (233, EPOLL_CTL, "epoll_ctl");
    (234, TGKILL, "tgkill");
    (235, UTIMES, "utimes");
    (247, WAITID, "waitid");
    (257, OPENAT, "openat");
    (258, MKDIRAT, "mkdirat");
    (262, NEWFSTATAT, "newfstatat");
    (263, UNLINKAT, "unlinkat");
    (264, RENAMEAT, "renameat");
    (266, SYMLINKAT, "symlinkat");
    (267, READLINKAT, "readlinkat");
    (268, FCHMODAT, "fchmodat");
    (269, FACCESSAT, "faccessat");
    (270, PSELECT6, "pselect6");
    (271, PPOLL, "ppoll");
    (273, SET_ROBUST_LIST, "set_robust_list");
    (274, GET_ROBUST_LIST, "get_robust_list");
    (280, UTIMENSAT, "utimensat");
    (281, EPOLL_PWAIT, "epoll_pwait");
    (284, EVENTFD, "eventfd");
    (285, FALLOCATE, "fallocate");
    (288, ACCEPT4, "accept4");
    (290, EVENTFD2, "eventfd2");
    (291, EPOLL_CREATE1, "epoll_create1");
    (292, DUP3, "dup3");
    (293, PIPE2, "pipe2");
    (302, PRLIMIT64, "prlimit64");
    (309, GETCPU, "getcpu");
    (314, SCHED_SETATTR, "sched_setattr");
    (315, SCHED_GETATTR, "sched_getattr");
    (316, RENAMEAT2, "renameat2");
    (317, SECCOMP, "seccomp");
    (318, GETRANDOM, "getrandom");
    (319, MEMFD_CREATE, "memfd_create");
    (322, EXECVEAT, "execveat");
    (323, USERFAULTFD, "userfaultfd");
    (324, MEMBARRIER, "membarrier");
    (325, MLOCK2, "mlock2");
    (329, PKEY_MPROTECT, "pkey_mprotect");
    (330, PKEY_ALLOC, "pkey_alloc");
    (331, PKEY_FREE, "pkey_free");
    (332, STATX, "statx");
    (334, RSEQ, "rseq");
    (424, PIDFD_SEND_SIGNAL, "pidfd_send_signal");
    (425, IO_URING_SETUP, "io_uring_setup");
    (426, IO_URING_ENTER, "io_uring_enter");
    (427, IO_URING_REGISTER, "io_uring_register");
    (435, CLONE3, "clone3");
    (439, FACCESSAT2, "faccessat2");
    (441, EPOLL_PWAIT2, "epoll_pwait2");
    (452, FCHMODAT2, "fchmodat2");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_numbers_match_abi() {
        assert_eq!(READ, 0);
        assert_eq!(WRITE, 1);
        assert_eq!(GETPID, 39);
        assert_eq!(CLONE, 56);
        assert_eq!(EXECVE, 59);
        assert_eq!(RT_SIGRETURN, 15);
        assert_eq!(PRCTL, 157);
        assert_eq!(GETRANDOM, 318);
        assert_eq!(IO_URING_SETUP, 425);
        assert_eq!(IO_URING_ENTER, 426);
        assert_eq!(IO_URING_REGISTER, 427);
    }

    #[test]
    fn name_round_trips() {
        for &(nr, n) in TABLE {
            assert_eq!(name(nr), Some(n));
            assert_eq!(number(n), Some(nr));
        }
    }

    #[test]
    fn table_is_sorted_and_unique() {
        for w in TABLE.windows(2) {
            assert!(w[0].0 < w[1].0, "{:?} >= {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn unknown_numbers_have_no_name() {
        assert_eq!(name(500), None);
        assert_eq!(name(u64::MAX), None);
        assert_eq!(number("not_a_syscall"), None);
    }
}
