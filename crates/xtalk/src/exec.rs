//! The `XTALK_*` settings: one table entry per setting holds its
//! variable, its flag and the one parser that sets [`ExecConfig`] or
//! [`ServeConfig`]. A command resolves each setting it takes once: the flag
//! if given, else the variable. A value means the same from either source
//! (a switch's `--flag=VALUE` takes the variable's on/off words), and a
//! malformed one from either is a configuration error naming its source
//! (a [`CliError`] with exit code 2). The analyzers read no environment.

use std::path::PathBuf;
use std::time::Duration;

use xtalk_sta::serve::ServeConfig;
use xtalk_sta::ExecConfig;
use xtalk_tech::Corner;

use crate::cli::CliError;

/// Parsed `--name [value]` flags.
type Flags<'a> = &'a [(&'a str, Option<&'a str>)];
/// A variable lookup: the process environment, or a test's.
type Env<'a> = &'a dyn Fn(&str) -> Option<String>;

/// What a setting's parser configures; a malformed value parses to `None`.
enum Sets {
    /// An on/off mode of the analyzer; its bare flag means on.
    Switch(fn(ExecConfig, bool) -> ExecConfig),
    Exec(fn(ExecConfig, &str) -> Option<ExecConfig>),
    Serve(fn(ServeConfig, &str) -> Option<ServeConfig>),
}

/// One `XTALK_*` setting.
struct Setting {
    var: &'static str,
    /// The flag's name without `--`; `XTALK_CACHE` has none.
    flag: Option<&'static str>,
    /// The commands that take the setting (`analyze` is `report`).
    commands: &'static [&'static str],
    /// What a value may be.
    expected: &'static str,
    sets: Sets,
}

/// The commands that build an analyzer.
const ANALYSIS: &[&str] = &["report", "sdf", "eco", "serve"];

const SWITCH_WORDS: &str = "one of 1/on/true/yes or 0/off/false/no";

fn switch(value: &str) -> Option<bool> {
    match value {
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// Every `XTALK_*` setting.
static SETTINGS: [Setting; 7] = [
    Setting {
        var: "XTALK_THREADS",
        flag: Some("threads"),
        commands: ANALYSIS,
        expected: "a non-negative integer (0 = auto)",
        sets: Sets::Exec(|config, value| match value.parse::<usize>().ok()? {
            0 => Some(config.with_threads(ExecConfig::default().threads)),
            n => Some(config.with_threads(n)),
        }),
    },
    Setting {
        var: "XTALK_CACHE",
        flag: None,
        commands: ANALYSIS,
        expected: SWITCH_WORDS,
        sets: Sets::Switch(ExecConfig::with_cache),
    },
    Setting {
        var: "XTALK_STRICT",
        flag: Some("strict"),
        commands: ANALYSIS,
        expected: SWITCH_WORDS,
        sets: Sets::Switch(ExecConfig::with_strict),
    },
    Setting {
        var: "XTALK_SIGNOFF",
        flag: Some("signoff"),
        commands: ANALYSIS,
        expected: SWITCH_WORDS,
        sets: Sets::Switch(ExecConfig::with_signoff),
    },
    Setting {
        var: "XTALK_CORNERS",
        flag: Some("corners"),
        commands: &["report"],
        expected: "a comma-separated list of distinct corner names from {ss, tt, ff}",
        sets: Sets::Exec(|config, value| {
            Some(config.with_corners(Some(Corner::parse_list(value).ok()?)))
        }),
    },
    Setting {
        var: "XTALK_CHAR_STORE",
        flag: Some("char-store"),
        commands: &["report", "sdf", "eco", "serve", "liberty"],
        expected: "a file path (empty = none)",
        sets: Sets::Exec(|config, value| {
            Some(config.with_char_store((!value.is_empty()).then(|| PathBuf::from(value))))
        }),
    },
    Setting {
        var: "XTALK_SERVE_TIMEOUT",
        flag: Some("request-timeout"),
        commands: &["serve"],
        expected: "a millisecond count",
        sets: Sets::Serve(|config, value| {
            let ms = Duration::from_millis(value.parse().ok()?);
            Some(config.with_request_timeout(Some(ms)))
        }),
    },
];

/// Whether `command` takes the setting flag `--name`, and if so whether
/// it is a switch (never the next argument's owner).
pub(crate) fn takes_flag(command: &str, name: &str) -> Option<bool> {
    let s = SETTINGS
        .iter()
        .find(|s| s.flag == Some(name) && s.commands.contains(&command))?;
    Some(matches!(s.sets, Sets::Switch(_)))
}

/// The process environment; a variable holding non-Unicode bytes is unset.
pub(crate) fn process_env(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

impl Setting {
    /// Applies the flag's value if given, else the variable's, to `config`
    /// through `parse`.
    fn apply<C>(
        &self,
        config: C,
        flags: Flags,
        env: Env,
        parse: impl FnOnce(C, &str) -> Option<C>,
    ) -> Result<C, CliError> {
        let (source, value) = match self.flag.and_then(|f| flags.iter().find(|(n, _)| *n == f)) {
            Some(&(name, value)) => {
                let bare = matches!(self.sets, Sets::Switch(_)).then_some("on");
                (format!("--{name}"), value.or(bare).map(str::to_string))
            }
            None => match env(self.var) {
                Some(value) => (self.var.to_string(), Some(value)),
                None => return Ok(config),
            },
        };
        let expected = self.expected;
        let message = match &value {
            Some(value) => format!("{source}: invalid value `{value}` (expected {expected})"),
            None => format!("{source}: missing value (expected {expected})"),
        };
        let parsed = value.as_deref().and_then(|v| parse(config, v.trim()));
        parsed.ok_or(CliError { message, code: 2 })
    }
}

/// The [`ExecConfig`] of `command`: every setting it takes, resolved once
/// from `flags` and the variables `env` looks up.
///
/// # Errors
///
/// A configuration error (exit 2) for the first malformed value.
pub(crate) fn exec_config(command: &str, flags: Flags, env: Env) -> Result<ExecConfig, CliError> {
    let mut taken = SETTINGS.iter().filter(|s| s.commands.contains(&command));
    taken.try_fold(ExecConfig::default(), |config, s| match s.sets {
        Sets::Switch(set) => s.apply(config, flags, env, |c, v| Some(set(c, switch(v)?))),
        Sets::Exec(parse) => s.apply(config, flags, env, parse),
        Sets::Serve(_) => Ok(config),
    })
}

/// Applies the daemon's own settings to `config`, as [`exec_config`] does.
///
/// # Errors
///
/// A configuration error (exit 2) for the first malformed value.
pub(crate) fn serve_config(
    config: ServeConfig,
    flags: Flags,
    env: Env,
) -> Result<ServeConfig, CliError> {
    SETTINGS.iter().try_fold(config, |config, s| match s.sets {
        Sets::Serve(parse) => s.apply(config, flags, env, parse),
        _ => Ok(config),
    })
}

/// The [`ExecConfig`] the process's `XTALK_*` variables select, for the
/// benches, which take no flags (`report` takes every analyzer setting).
///
/// # Errors
///
/// A configuration error (exit 2) for the first malformed variable.
pub fn exec_config_from_env() -> Result<ExecConfig, CliError> {
    exec_config("report", &[], &process_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWITCH_VALUES: &[&str] = &["1", "on", "true", "yes", "0", "off", "false", "no"];

    /// Per setting: the values it accepts and the values it rejects.
    const CASES: [(&str, &[&str], &[&str]); 7] = [
        (
            "XTALK_THREADS",
            &["0", "1", "3", " 2 "],
            &["banana", "-2", "1.5", ""],
        ),
        ("XTALK_CACHE", SWITCH_VALUES, &["maybe", "2", ""]),
        ("XTALK_STRICT", SWITCH_VALUES, &["2", "sorta"]),
        ("XTALK_SIGNOFF", SWITCH_VALUES, &["sorta", "On"]),
        (
            "XTALK_CORNERS",
            &["ss", "ss, tt ,ff", "ff,ss"],
            &["ss,zz", "fast", "ss,,tt", "ss,ss", ""],
        ),
        ("XTALK_CHAR_STORE", &["chars.bin", " chars.bin", ""], &[]),
        (
            "XTALK_SERVE_TIMEOUT",
            &["0", "250"],
            &["soon", "-1", "1.5", ""],
        ),
    ];

    type Vars<'a> = &'a [(&'a str, &'a str)];

    fn lookup<'a>(vars: Vars<'a>) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            vars.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| (*v).to_string())
        }
    }

    fn exec(command: &str, flags: Flags, vars: Vars) -> Option<ExecConfig> {
        exec_config(command, flags, &lookup(vars)).ok()
    }

    /// The configuration error `report` rejects the variables `vars` with.
    fn rejected(vars: Vars) -> CliError {
        let e = exec_config("report", &[], &lookup(vars)).expect_err("junk must be rejected");
        assert_eq!(e.code, 2, "configuration errors exit 2: {e}");
        e
    }

    /// The config `setting`'s first command resolves, as text, or the
    /// message of its configuration error, which exits 2.
    fn resolve(setting: &Setting, flags: Flags, vars: Vars) -> Result<String, String> {
        let env = lookup(vars);
        let resolved = match setting.sets {
            Sets::Serve(_) => {
                serve_config(ServeConfig::new("s.sock"), flags, &env).map(|c| format!("{c:?}"))
            }
            _ => exec_config(setting.commands[0], flags, &env).map(|c| format!("{c:?}")),
        };
        resolved.map_err(|e| {
            assert_eq!(e.code, 2, "{e}");
            e.message
        })
    }

    #[test]
    fn every_setting_reads_alike_from_its_flag_and_its_variable() {
        for setting in &SETTINGS {
            let var = setting.var;
            let (_, good, bad) = CASES
                .iter()
                .find(|(v, ..)| *v == var)
                .unwrap_or_else(|| panic!("no case for {var}"));
            let flag = setting.flag;
            for &value in *good {
                let from_var = resolve(setting, &[], &[(var, value)]).expect("accepted");
                if let Some(name) = flag {
                    let from_flag = resolve(setting, &[(name, Some(value))], &[]);
                    assert_eq!(from_flag, Ok(from_var), "--{name}={value:?}");
                }
            }
            for &value in *bad {
                let mut sources = vec![(var.to_string(), resolve(setting, &[], &[(var, value)]))];
                if let Some(name) = flag {
                    sources.push((
                        format!("--{name}"),
                        resolve(setting, &[(name, Some(value))], &[]),
                    ));
                    // The flag wins over a malformed variable it shadows.
                    assert_eq!(
                        resolve(setting, &[(name, Some(good[0]))], &[(var, value)]),
                        resolve(setting, &[], &[(var, good[0])]),
                        "--{name} shadows {var}={value:?}"
                    );
                }
                let expected = setting.expected;
                for (source, resolved) in sources {
                    let message =
                        format!("{source}: invalid value `{value}` (expected {expected})");
                    assert_eq!(resolved, Err(message));
                }
            }
            // A bare switch means on; any other bare flag lacks its value.
            if let Some(name) = flag {
                let bare = resolve(setting, &[(name, None)], &[]);
                if matches!(setting.sets, Sets::Switch(_)) {
                    assert_eq!(bare, resolve(setting, &[], &[(var, "on")]));
                } else {
                    let expected = setting.expected;
                    let message = format!("--{name}: missing value (expected {expected})");
                    assert_eq!(bare, Err(message));
                }
            }
        }
        // 0 threads is auto from either source.
        let auto = ExecConfig::default().threads;
        assert_eq!(
            exec("eco", &[("threads", Some("0"))], &[]).map(|c| c.threads),
            Some(auto)
        );
        assert_eq!(
            exec("eco", &[], &[("XTALK_THREADS", "0")]).map(|c| c.threads),
            Some(auto)
        );
        // A switch's `=off` turns its mode off, over the variable too.
        let off = exec(
            "report",
            &[("signoff", Some("off")), ("strict", Some("off"))],
            &[("XTALK_SIGNOFF", "1"), ("XTALK_STRICT", "1")],
        )
        .expect("off");
        assert!(!off.signoff && !off.strict);
        // An empty store path means no store.
        let none = exec(
            "sdf",
            &[("char-store", Some(""))],
            &[("XTALK_CHAR_STORE", "x")],
        );
        assert_eq!(none.map(|c| c.char_store), Some(None));
    }

    #[test]
    fn env_overrides_parse_valid_values() {
        let c = exec(
            "report",
            &[],
            &[
                ("XTALK_THREADS", "3"),
                ("XTALK_CACHE", "off"),
                ("XTALK_STRICT", "1"),
                ("XTALK_SIGNOFF", "on"),
                ("XTALK_CHAR_STORE", " chars.bin "),
            ],
        )
        .expect("valid overrides");
        assert_eq!(c.threads, 3);
        assert!(!c.cache);
        assert!(c.strict);
        assert!(c.signoff);
        assert_eq!(c.char_store, Some(PathBuf::from("chars.bin")));
        assert!(!ExecConfig::default().signoff, "fast path is the default");
        // 0 threads keeps the auto default; unset variables keep every default.
        let auto = exec("report", &[], &[("XTALK_THREADS", "0")]).expect("auto");
        assert_eq!(auto.threads, ExecConfig::default().threads);
        let plain = exec("report", &[], &[]).expect("no overrides");
        assert!(plain.cache, "reuse is on by default");
        assert!(!plain.strict && !plain.signoff);
        assert!(plain.corners.is_none() && plain.char_store.is_none());
    }

    #[test]
    fn junk_threads_is_a_typed_error_not_a_silent_default() {
        for bad in ["banana", "-2", "1.5", ""] {
            let e = rejected(&[("XTALK_THREADS", bad)]);
            let expected = "a non-negative integer (0 = auto)";
            let message = format!("XTALK_THREADS: invalid value `{bad}` (expected {expected})");
            assert_eq!(e.message, message);
        }
    }

    #[test]
    fn corners_env_parses_known_names_in_order() {
        let c = exec("report", &[], &[("XTALK_CORNERS", "ss, tt ,ff")]).expect("valid list");
        let names: Vec<String> = c
            .corners
            .expect("corners set")
            .iter()
            .map(|k| k.name.clone())
            .collect();
        assert_eq!(names, ["ss", "tt", "ff"]);
        let single = exec("report", &[], &[("XTALK_CORNERS", "ss")]).expect("one");
        assert_eq!(single.corners.expect("set").len(), 1);
        assert!(
            exec("report", &[], &[]).expect("unset").corners.is_none(),
            "no corners variable keeps the single-process default"
        );
    }

    #[test]
    fn unknown_corner_name_is_a_typed_error() {
        for spec in ["ss,zz", "fast", "ss,,tt", "ss,ss"] {
            let e = rejected(&[("XTALK_CORNERS", spec)]);
            let expected = "a comma-separated list of distinct corner names from {ss, tt, ff}";
            let message = format!("XTALK_CORNERS: invalid value `{spec}` (expected {expected})");
            assert_eq!(e.message, message);
        }
    }

    #[test]
    fn junk_switches_and_modes_are_rejected() {
        for (var, bad) in [
            ("XTALK_CACHE", "maybe"),
            ("XTALK_STRICT", "2"),
            ("XTALK_SIGNOFF", "sorta"),
        ] {
            let e = rejected(&[(var, bad)]);
            let message = format!("{var}: invalid value `{bad}` (expected {SWITCH_WORDS})");
            assert_eq!(e.message, message);
        }
        let on = exec("report", &[], &[("XTALK_CACHE", "yes")]).expect("switch");
        assert!(on.cache);
        // The first four switch words mean on, the rest off.
        for (i, &word) in SWITCH_VALUES.iter().enumerate() {
            let c = exec(
                "report",
                &[("signoff", Some(word))],
                &[("XTALK_CACHE", word)],
            );
            assert_eq!(
                c.map(|c| (c.signoff, c.cache)),
                Some((i < 4, i < 4)),
                "{word}"
            );
        }
    }

    #[test]
    fn a_command_reads_only_the_settings_it_takes() {
        assert!(exec("sdf", &[], &[("XTALK_CORNERS", "zz")]).is_some());
        assert!(exec("liberty", &[], &[("XTALK_THREADS", "banana")]).is_some());
        assert!(exec("report", &[], &[("XTALK_SERVE_TIMEOUT", "soon")]).is_some());
        let store = exec("liberty", &[], &[("XTALK_CHAR_STORE", "c")]);
        assert!(store.is_some_and(|c| c.char_store.is_some()));
        // Some(true) marks a switch; None a flag the command does not take.
        for (command, name, taken) in [
            ("report", "corners", Some(false)),
            ("eco", "corners", None),
            ("serve", "request-timeout", Some(false)),
            ("report", "request-timeout", None),
            ("sdf", "signoff", Some(true)),
            ("serve", "strict", Some(true)),
            ("liberty", "strict", None),
        ] {
            assert_eq!(takes_flag(command, name), taken, "{command} --{name}");
        }
    }
}
