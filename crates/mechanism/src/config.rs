//! The one reader of the process environment: [`EnvConfig`], one typed
//! field per runtime variable, built once per install.
//!
//! One rule holds for every variable: unset or empty gives the default,
//! an accepted value is parsed, and anything else is a [`ConfigError`]
//! naming the variable, its value and what it accepts. Every variable
//! is parsed whether or not a layer of the mechanism will read it, so
//! [`Mechanism::install`] fails with [`InstallError::Config`] on any
//! malformed value, whatever layers the name carries — a typo never
//! waits for the sibling variable that would make it matter.
//!
//! [`KNOBS`] lists the sixteen variables; EXPERIMENTS.md's runtime-knob
//! table carries the same names and accepted values, and a unit test
//! holds the two equal.

use std::ffi::{OsStr, OsString};
use std::path::PathBuf;

use ::sfip::ViolationAction;
use lazypoline::faultinject::{self, Fault};
use lazypoline::BypassPolicy;
use replay::{ring, DrainMode};
use zpoline::XstateMask;

use crate::{by_name, names, static_by_name, DEFAULT_MECHANISM, ENV_VAR};
#[cfg(doc)]
use crate::{InstallError, Mechanism};

/// `LP_HOOKS` ([`KNOBS`] describes every variable).
pub const HOOKS_ENV: &str = "LP_HOOKS";
/// `LP_HOOKS_WATCH`.
pub const HOOKS_WATCH_ENV: &str = "LP_HOOKS_WATCH";
/// `LP_TRACE_OUT`: a literal `%p` in it is the pid (the `valgrind
/// --log-file` convention), so a process tree that inherits one value
/// leaves one trace each (see [`replay::Recorder`]).
pub const TRACE_OUT_ENV: &str = "LP_TRACE_OUT";
/// `LP_REPLAY_BASE`.
pub const REPLAY_BASE_ENV: &str = "LP_REPLAY_BASE";

const MODE_ENV: &str = "LAZYPOLINE_MODE";
const XSTATE_ENV: &str = "LAZYPOLINE_XSTATE";
const STATS_ENV: &str = "LAZYPOLINE_STATS";
const FAULTS_ENV: &str = "LAZYPOLINE_FAULTS";
const HARDEN_POLICY_ENV: &str = "LP_HARDEN_POLICY";
const SITE_CACHE_ENV: &str = "LP_SITE_CACHE";

/// Every runtime variable and what it accepts (as [`ConfigError`]
/// prints it), in [`EnvConfig`]'s field order. A path takes any bytes;
/// every other value must be UTF-8.
pub const KNOBS: [(&str, &str); 16] = [
    (ENV_VAR, "a registered name: base(+layer)* or replay:<trace-path>"),
    (MODE_ENV, "passthrough, trace or count"),
    (XSTATE_ENV, "avx, sse, x87 or none"),
    (STATS_ENV, "0 or 1"),
    (FAULTS_ENV, "site:schedule[:ERRNO],… with site one of trampoline_install, patch_mprotect, sud_enroll, selector_write, slowpath_emulate, seccomp_install, handler_panic"),
    (HOOKS_ENV, "lib.so[:prio],…"),
    (HOOKS_WATCH_ENV, "0 or 1"),
    (TRACE_OUT_ENV, "a path; %p is the pid"),
    (replay::DRAIN_ENV, "async or sync"),
    (ring::LP_RING_CAPACITY, "a power of two in [64, 4194304]"),
    (REPLAY_BASE_ENV, "a static registry name"),
    (::sfip::POLICY_ENV, "a path to an LPSFIP1 policy"),
    (::sfip::ACTION_ENV, "kill, quarantine or count"),
    (::sfip::ORIGINS_ENV, "0 or 1"),
    (HARDEN_POLICY_ENV, "kill or quarantine"),
    (SITE_CACHE_ENV, "a directory, or off"),
];

/// A variable holds a value it does not accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable.
    pub var: &'static str,
    /// Its value (lossily, if it is not UTF-8).
    pub value: String,
    /// What it accepts, from [`KNOBS`].
    pub expected: &'static str,
}

impl ConfigError {
    /// `var` holding `value`, with what [`KNOBS`] says it accepts.
    pub(crate) fn new(var: &'static str, value: impl ToString) -> ConfigError {
        let knob = KNOBS.iter().find(|k| k.0 == var).expect("every variable is a knob");
        ConfigError { var, value: value.to_string(), expected: knob.1 }
    }
}

impl std::fmt::Display for ConfigError {
    /// For `LP_MECHANISM`, also every registered base and every layer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={:?}: expected {}", self.var, self.value, self.expected)?;
        if self.var == ENV_VAR {
            let bases = names().join(", ");
            write!(f, " (base one of {bases}; layer one of record, hooks, sfip, each at most once)")?;
        }
        Ok(())
    }
}

impl std::error::Error for ConfigError {}

/// What the shim's innermost handler does (`LAZYPOLINE_MODE`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandlerMode {
    /// Every syscall passes through.
    Passthrough,
    /// Every syscall is printed to stderr.
    Trace,
    /// Every syscall is counted; the dump lists the top numbers.
    Count,
}

/// Every runtime variable, parsed: the configuration of one install.
///
/// [`Mechanism::install`] builds one per call with
/// [`from_env`](Self::from_env). A driver that configures an install
/// itself passes its own to [`Mechanism::install_with`] instead of
/// changing the environment, as
/// `EnvConfig { trace_out: Some(path), ..EnvConfig::from_env()? }`.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvConfig {
    /// `LP_MECHANISM`: a registry key.
    pub mechanism: &'static str,
    /// `LAZYPOLINE_MODE`.
    pub mode: HandlerMode,
    /// `LAZYPOLINE_XSTATE`; `None` keeps the base's mask.
    pub xstate: Option<XstateMask>,
    /// `LAZYPOLINE_STATS`.
    pub stats: bool,
    /// `LAZYPOLINE_FAULTS`: armed by the process's first engine-backed
    /// install; a later one must name the same set or none.
    pub faults: Vec<Fault>,
    /// `LP_HOOKS`: a `hookabi::parse_specs` spec.
    pub hooks: String,
    /// `LP_HOOKS_WATCH`.
    pub hooks_watch: bool,
    /// `LP_TRACE_OUT`.
    pub trace_out: Option<PathBuf>,
    /// `LP_DRAIN`.
    pub drain: DrainMode,
    /// `LP_RING_CAPACITY`; `None` keeps the current capacity.
    pub ring_capacity: Option<usize>,
    /// `LP_REPLAY_BASE`: a static registry key.
    pub replay_base: Option<&'static str>,
    /// `LP_SFIP_POLICY`.
    pub sfip_policy: Option<PathBuf>,
    /// `LP_SFIP_POLICY_ACTION`.
    pub sfip_action: ViolationAction,
    /// `LP_SFIP_ORIGINS`.
    pub sfip_origins: bool,
    /// `LP_HARDEN_POLICY`.
    pub harden_policy: BypassPolicy,
    /// `LP_SITE_CACHE`; `None` is `off`.
    pub site_cache: Option<PathBuf>,
}

impl Default for EnvConfig {
    /// Every variable unset.
    fn default() -> EnvConfig {
        EnvConfig::from_lookup(|_| None::<OsString>).expect("every default parses")
    }
}

impl EnvConfig {
    /// The process environment, parsed.
    pub fn from_env() -> Result<EnvConfig, ConfigError> {
        EnvConfig::from_lookup(|var| std::env::var_os(var))
    }

    /// Parses every variable `lookup` answers for by the one rule.
    pub fn from_lookup<V: Into<OsString>>(
        lookup: impl Fn(&str) -> Option<V>,
    ) -> Result<EnvConfig, ConfigError> {
        let f = &|var: &str| lookup(var).map(Into::into);
        Ok(EnvConfig {
            mechanism: field(f, ENV_VAR, DEFAULT_MECHANISM, registered)?,
            mode: field(f, MODE_ENV, HandlerMode::Passthrough, |v| match v {
                "passthrough" => Some(HandlerMode::Passthrough),
                "trace" => Some(HandlerMode::Trace),
                "count" => Some(HandlerMode::Count),
                _ => None,
            })?,
            xstate: field(f, XSTATE_ENV, None, |v| match v {
                "avx" => Some(Some(XstateMask::Avx)),
                "sse" => Some(Some(XstateMask::Sse)),
                "x87" => Some(Some(XstateMask::X87)),
                "none" => Some(Some(XstateMask::None)),
                _ => None,
            })?,
            stats: field(f, STATS_ENV, false, switch)?,
            faults: field(f, FAULTS_ENV, Vec::new(), faultinject::parse_spec)?,
            hooks: field(f, HOOKS_ENV, String::new(), |v| {
                hookabi::parse_specs(v).ok().map(|_| v.to_string())
            })?,
            hooks_watch: field(f, HOOKS_WATCH_ENV, false, switch)?,
            trace_out: os_field(f, TRACE_OUT_ENV, None, path)?,
            drain: field(f, replay::DRAIN_ENV, DrainMode::Async, DrainMode::from_name)?,
            ring_capacity: field(f, ring::LP_RING_CAPACITY, None, |v| {
                let capacity = v.parse().ok()?;
                ring::validate(capacity).then_some(Some(capacity))
            })?,
            replay_base: field(f, REPLAY_BASE_ENV, None, |v| static_by_name(v).map(|m| Some(m.name())))?,
            sfip_policy: os_field(f, ::sfip::POLICY_ENV, None, path)?,
            sfip_action: field(f, ::sfip::ACTION_ENV, ViolationAction::Kill, ViolationAction::from_name)?,
            sfip_origins: field(f, ::sfip::ORIGINS_ENV, false, switch)?,
            harden_policy: field(f, HARDEN_POLICY_ENV, BypassPolicy::Kill, BypassPolicy::from_name)?,
            site_cache: os_field(f, SITE_CACHE_ENV, Some(default_site_cache()), |v| {
                Some((v != "off").then(|| PathBuf::from(v)))
            })?,
        })
    }
}

fn registered(name: &str) -> Option<&'static str> {
    by_name(name).map(|m| m.name())
}

/// One variable by the one rule: unset or empty is `default`, anything
/// else goes through `parse`, and `None` from it — or a value that is
/// not UTF-8 — is the error.
fn field<T>(
    lookup: &impl Fn(&str) -> Option<OsString>,
    var: &'static str,
    default: T,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, ConfigError> {
    os_field(lookup, var, default, |v| parse(v.to_str()?))
}

/// [`field`] for a path, whose value may be any bytes.
fn os_field<T>(
    lookup: &impl Fn(&str) -> Option<OsString>,
    var: &'static str,
    default: T,
    parse: impl FnOnce(&OsStr) -> Option<T>,
) -> Result<T, ConfigError> {
    match lookup(var).filter(|v| !v.is_empty()) {
        None => Ok(default),
        Some(value) => parse(&value).ok_or_else(|| ConfigError::new(var, value.to_string_lossy())),
    }
}

/// An on/off variable: `0` or `1`.
fn switch(v: &str) -> Option<bool> {
    match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn path(v: &OsStr) -> Option<Option<PathBuf>> {
    Some(Some(PathBuf::from(v)))
}

fn default_site_cache() -> PathBuf {
    // SAFETY: geteuid(2) takes no arguments and cannot fail.
    let euid = unsafe { syscalls::raw::syscall0(syscalls::nr::GETEUID) } as u32;
    PathBuf::from(format!("/tmp/lazypoline-{euid}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazypoline::faultinject::{Schedule, Site};

    fn with(var: &str, value: &str) -> Result<EnvConfig, ConfigError> {
        EnvConfig::from_lookup(|v| (v == var).then(|| value.to_string()))
    }

    /// `var` holding bytes that are not UTF-8.
    fn with_bytes(var: &str, value: &[u8]) -> Result<EnvConfig, ConfigError> {
        use std::os::unix::ffi::OsStrExt;
        EnvConfig::from_lookup(|v| (v == var).then(|| OsStr::from_bytes(value).to_os_string()))
    }

    #[test]
    fn unset_and_empty_give_every_default() {
        let d = EnvConfig::default();
        assert_eq!(
            d,
            EnvConfig {
                mechanism: "lazypoline",
                mode: HandlerMode::Passthrough,
                xstate: None,
                stats: false,
                faults: Vec::new(),
                hooks: String::new(),
                hooks_watch: false,
                trace_out: None,
                drain: DrainMode::Async,
                ring_capacity: None,
                replay_base: None,
                sfip_policy: None,
                sfip_action: ViolationAction::Kill,
                sfip_origins: false,
                harden_policy: BypassPolicy::Kill,
                site_cache: Some(default_site_cache()),
            }
        );
        for (name, _) in KNOBS {
            assert_eq!(with(name, ""), Ok(d.clone()), "{name}");
        }
    }

    #[test]
    fn every_accepted_value_parses_and_every_typo_is_an_error() {
        let d = EnvConfig::default;
        let path = |p: &str| Some(PathBuf::from(p));
        let accepted = [
            (ENV_VAR, "sud", EnvConfig { mechanism: "sud", ..d() }),
            (ENV_VAR, "lazypoline+record+sfip", EnvConfig { mechanism: "lazypoline+record+sfip", ..d() }),
            (ENV_VAR, "none+hooks", EnvConfig { mechanism: "none+hooks", ..d() }),
            (ENV_VAR, "replay:/t.lpt", EnvConfig { mechanism: "replay:/t.lpt", ..d() }),
            (MODE_ENV, "passthrough", d()),
            (MODE_ENV, "trace", EnvConfig { mode: HandlerMode::Trace, ..d() }),
            (MODE_ENV, "count", EnvConfig { mode: HandlerMode::Count, ..d() }),
            (XSTATE_ENV, "avx", EnvConfig { xstate: Some(XstateMask::Avx), ..d() }),
            (XSTATE_ENV, "sse", EnvConfig { xstate: Some(XstateMask::Sse), ..d() }),
            (XSTATE_ENV, "x87", EnvConfig { xstate: Some(XstateMask::X87), ..d() }),
            (XSTATE_ENV, "none", EnvConfig { xstate: Some(XstateMask::None), ..d() }),
            (STATS_ENV, "0", d()),
            (STATS_ENV, "1", EnvConfig { stats: true, ..d() }),
            (
                FAULTS_ENV,
                "patch_mprotect:every=3,sud_enroll:nth=2:EPERM",
                EnvConfig {
                    faults: vec![
                        Fault { site: Site::PatchMprotect, schedule: Schedule::EveryNth(3), errno: None },
                        Fault { site: Site::SudEnroll, schedule: Schedule::Nth(2), errno: Some(1) },
                    ],
                    ..d()
                },
            ),
            (HOOKS_ENV, "hook_count:20,hook_openat", EnvConfig { hooks: "hook_count:20,hook_openat".into(), ..d() }),
            (HOOKS_WATCH_ENV, "0", d()),
            (HOOKS_WATCH_ENV, "1", EnvConfig { hooks_watch: true, ..d() }),
            // A path has no typo: any value names one.
            (TRACE_OUT_ENV, "/tmp/t.%p.lpt", EnvConfig { trace_out: path("/tmp/t.%p.lpt"), ..d() }),
            (replay::DRAIN_ENV, "async", d()),
            (replay::DRAIN_ENV, "sync", EnvConfig { drain: DrainMode::Sync, ..d() }),
            (ring::LP_RING_CAPACITY, "64", EnvConfig { ring_capacity: Some(64), ..d() }),
            (ring::LP_RING_CAPACITY, "4194304", EnvConfig { ring_capacity: Some(1 << 22), ..d() }),
            (REPLAY_BASE_ENV, "none", EnvConfig { replay_base: Some("none"), ..d() }),
            (REPLAY_BASE_ENV, "lazypoline-hardened", EnvConfig { replay_base: Some("lazypoline-hardened"), ..d() }),
            (::sfip::POLICY_ENV, "/p.sfip", EnvConfig { sfip_policy: path("/p.sfip"), ..d() }),
            (::sfip::ACTION_ENV, "kill", d()),
            (::sfip::ACTION_ENV, "quarantine", EnvConfig { sfip_action: ViolationAction::Quarantine, ..d() }),
            (::sfip::ACTION_ENV, "count", EnvConfig { sfip_action: ViolationAction::Count, ..d() }),
            (::sfip::ORIGINS_ENV, "0", d()),
            (::sfip::ORIGINS_ENV, "1", EnvConfig { sfip_origins: true, ..d() }),
            (HARDEN_POLICY_ENV, "kill", d()),
            (HARDEN_POLICY_ENV, "quarantine", EnvConfig { harden_policy: BypassPolicy::Quarantine, ..d() }),
            (SITE_CACHE_ENV, "off", EnvConfig { site_cache: None, ..d() }),
            (SITE_CACHE_ENV, "of", EnvConfig { site_cache: path("of"), ..d() }),
        ];
        for (var, value, want) in accepted {
            assert_eq!(with(var, value), Ok(want), "{var}={value}");
        }
        let typos = [
            (ENV_VAR, "lazypoline+nope"),
            (MODE_ENV, "cuont"),
            (XSTATE_ENV, "axv"),
            (STATS_ENV, "yes"),
            (FAULTS_ENV, "patch_mprotect:evry=3"),
            (HOOKS_ENV, "hook_count,"),
            (HOOKS_WATCH_ENV, "yes"),
            (replay::DRAIN_ENV, "asnyc"),
            (ring::LP_RING_CAPACITY, "1000"),
            (ring::LP_RING_CAPACITY, "abc"),
            (ring::LP_RING_CAPACITY, "8388608"),
            (REPLAY_BASE_ENV, "no-such-backend"),
            (REPLAY_BASE_ENV, "lazypoline+record"),
            (::sfip::ACTION_ENV, "cuont"),
            (::sfip::ORIGINS_ENV, "on"),
            (HARDEN_POLICY_ENV, "qaurantine"),
        ];
        for (var, value) in typos {
            let e = with(var, value).expect_err(var);
            assert_eq!((e.var, e.value.as_str()), (var, value));
            let shown = e.to_string();
            assert!(shown.starts_with(&format!("{var}={value:?}: expected ")), "{shown}");
        }
        // Every knob has a typo row, or is a path, which has none.
        for (name, _) in KNOBS {
            let is_path = [TRACE_OUT_ENV, ::sfip::POLICY_ENV, SITE_CACHE_ENV].contains(&name);
            assert!(is_path || typos.iter().any(|(var, _)| *var == name), "{name}");
        }
    }

    #[test]
    fn a_path_takes_any_bytes_and_nothing_else_does() {
        use std::os::unix::ffi::OsStrExt;
        let bytes = b"/tmp/\xff.%p";
        let path = Some(PathBuf::from(OsStr::from_bytes(bytes)));
        let d = EnvConfig::default;
        assert_eq!(with_bytes(TRACE_OUT_ENV, bytes), Ok(EnvConfig { trace_out: path.clone(), ..d() }));
        assert_eq!(with_bytes(::sfip::POLICY_ENV, bytes), Ok(EnvConfig { sfip_policy: path.clone(), ..d() }));
        assert_eq!(with_bytes(SITE_CACHE_ENV, bytes), Ok(EnvConfig { site_cache: path, ..d() }));
        for (name, _) in KNOBS {
            if ![TRACE_OUT_ENV, ::sfip::POLICY_ENV, SITE_CACHE_ENV].contains(&name) {
                let e = with_bytes(name, b"\xff").expect_err(name);
                assert_eq!((e.var, e.value.as_str()), (name, "\u{fffd}"));
            }
        }
    }

    #[test]
    fn an_unknown_mechanism_lists_the_valid_names() {
        let e = with(ENV_VAR, "no-such-mechanism").unwrap_err().to_string();
        for piece in ["base(+layer)*", "replay:<trace-path>", "lazypoline-hardened", "record, hooks, sfip"] {
            assert!(e.contains(piece), "{piece}: {e}");
        }
        // Only LP_MECHANISM's error lists them.
        assert!(!with(MODE_ENV, "cuont").unwrap_err().to_string().contains("base one of"));
    }

    #[test]
    fn ring_bounds_are_the_rings_own() {
        let k = KNOBS.iter().find(|k| k.0 == ring::LP_RING_CAPACITY).unwrap();
        assert!(k.1.contains(&ring::MAX_RING_CAPACITY.to_string()));
    }

    /// EXPERIMENTS.md's "Runtime knobs" table names every variable of
    /// [`KNOBS`], in order, with what it accepts; its other columns
    /// (default, reader) are prose.
    #[test]
    fn experiments_md_carries_the_knob_table() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let header = "| Variable | Accepts | Default | Read by |\n|---|---|---|---|\n";
        let table = doc.split(header).nth(1).expect("EXPERIMENTS.md has the runtime-knob table");
        let rows: Vec<(&str, &str)> = table
            .lines()
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let mut cols = l.split(" | ");
                let name = cols.next().unwrap().trim_start_matches("| `").trim_end_matches('`');
                (name, cols.next().unwrap())
            })
            .collect();
        assert_eq!(rows, KNOBS, "EXPERIMENTS.md's runtime-knob table differs from KNOBS");
    }

    #[test]
    fn the_faults_knob_names_every_site() {
        let accepts = KNOBS.iter().find(|k| k.0 == FAULTS_ENV).expect("a knob").1;
        let sites: Vec<_> = faultinject::ALL_SITES.iter().map(|s| s.name()).collect();
        assert!(accepts.ends_with(&sites.join(", ")), "{accepts}");
    }
}
