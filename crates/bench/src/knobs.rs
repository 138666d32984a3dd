//! One knob table, one layering, nothing swallowed (slides 183–195).
//!
//! Every command-line surface of this crate — each experiment of
//! `perfeval-exp`, `minidb-serve`, `minidb-load` — declares its knobs once,
//! as a `&[Knob]`, and parses through [`Config::parse`]. The effective value
//! of a knob is its default, overridden by its smoke value when `--smoke`
//! is given, overridden by `-Dname=value` on the command line, whatever the
//! order of the arguments. An argument the table does not declare is an
//! error, never a silent default: a misspelled knob must not produce a
//! measurement of something else.
//!
//! The store underneath is [`Properties`]; its `apply_args` hands back what
//! it did not consume, and this is where that is looked at.

use perfeval_harness::properties::{PropError, Properties};

/// One declared knob of a command-line surface.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The `-D` key.
    pub name: &'static str,
    /// Value when nothing overrides it.
    pub default: &'static str,
    /// Value under `--smoke`, when the smoke run is sized differently.
    pub smoke: Option<&'static str>,
    /// One line for the usage table.
    pub doc: &'static str,
}

impl Knob {
    /// A knob sized the same in a smoke run as in a full one.
    pub const fn new(name: &'static str, default: &'static str, doc: &'static str) -> Knob {
        Knob {
            name,
            default,
            smoke: None,
            doc,
        }
    }

    /// The value `--smoke` gives this knob.
    pub const fn smoke(mut self, value: &'static str) -> Knob {
        self.smoke = Some(value);
        self
    }
}

/// A quickstart spelling: `--flag VALUE` is `-D<knob>=VALUE`.
pub type Flag = (&'static str, &'static str);

/// The effective configuration of one run: every declared knob has a value.
#[derive(Debug, Clone)]
pub struct Config {
    knobs: &'static [Knob],
    props: Properties,
    smoke: bool,
}

impl Config {
    /// Layers `args` over the table: default < smoke value < `-Dname=value`.
    ///
    /// # Errors
    /// Names the offender: an undeclared `-D` key, a `-D` without `=`, a
    /// flag without its value, or any other bare argument.
    pub fn parse(
        knobs: &'static [Knob],
        flags: &[Flag],
        args: &[String],
    ) -> Result<Config, String> {
        let mut smoke = false;
        let mut defines: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                smoke = true;
            } else if let Some((_, knob)) = flags.iter().find(|(flag, _)| flag == arg) {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                defines.push(format!("-D{knob}={value}"));
            } else {
                defines.push(arg.clone());
            }
        }
        let mut props = Properties::new();
        for k in knobs {
            props.set(k.name, k.smoke.filter(|_| smoke).unwrap_or(k.default));
        }
        let rest = props
            .apply_args(defines.iter().map(String::as_str))
            .map_err(|e| match e {
                PropError::Malformed { text, .. } => format!("'{text}' is not -Dkey=value"),
                other => other.to_string(),
            })?;
        if let Some(stray) = rest.first() {
            return Err(format!("unknown argument '{stray}'"));
        }
        if let Some(key) = props
            .keys()
            .find(|key| knobs.iter().all(|k| k.name != *key))
        {
            return Err(format!("unknown knob '-D{key}'"));
        }
        Ok(Config {
            knobs,
            props,
            smoke,
        })
    }

    /// [`Config::parse`], or the offence and the usage table on stderr and
    /// exit status 2.
    pub fn parse_or_exit(
        program: &str,
        knobs: &'static [Knob],
        flags: &[Flag],
        args: &[String],
    ) -> Config {
        Config::parse(knobs, flags, args).unwrap_or_else(|offence| {
            eprintln!("{program}: {offence}\n\n{}", usage(program, knobs, flags));
            std::process::exit(2);
        })
    }

    /// Was `--smoke` given? For what is smoke-sized but not a knob.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The effective values, for a report's configuration section.
    pub fn props(&self) -> &Properties {
        &self.props
    }

    /// A knob's effective value.
    ///
    /// # Panics
    /// Panics on a name the table does not declare — a bug in the caller,
    /// not in the command line.
    pub fn str(&self, name: &str) -> &str {
        self.props
            .get(name)
            .unwrap_or_else(|| panic!("knob '{name}' is read but not declared"))
    }

    /// A knob's effective value as a `T` (`ctx.get::<usize>("reps")`); a
    /// value that is not one is [refused](Config::refuse).
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> T {
        let value = self.str(name);
        value.parse().unwrap_or_else(|_| {
            let wanted = std::any::type_name::<T>();
            self.refuse(&format!("-D{name}='{value}' is not a valid {wanted}"))
        })
    }

    /// Reports a declared knob's unusable value with the knob table and
    /// exits with status 2, like an undeclared argument.
    pub fn refuse(&self, offence: &str) -> ! {
        eprintln!("{offence}\n\n{KNOB_COLUMNS}{}", knob_table(self.knobs));
        std::process::exit(2);
    }

    /// The header line stating what this run actually used.
    pub fn render(&self) -> String {
        let mut words = Vec::from_iter(self.smoke.then(|| "--smoke".to_owned()));
        let value = |k: &Knob| format!("{}={}", k.name, self.str(k.name));
        words.extend(self.knobs.iter().map(value));
        if words.is_empty() {
            return "(no knobs)".to_owned();
        }
        words.join(" ")
    }
}

/// The columns of [`knob_table`].
pub const KNOB_COLUMNS: &str = "  knob               default          smoke    what it sets\n";

/// One row per knob: name, default, value under `--smoke`, doc.
pub fn knob_table(knobs: &[Knob]) -> String {
    if knobs.is_empty() {
        return "  (no knobs)\n".to_owned();
    }
    let mut out = String::new();
    for k in knobs {
        out.push_str(&format!(
            "  -D{:<16} {:<16} {:<8} {}\n",
            k.name,
            if k.default.is_empty() {
                "(empty)"
            } else {
                k.default
            },
            k.smoke.unwrap_or("-"),
            k.doc
        ));
    }
    out
}

/// What a refused command line is answered with.
fn usage(program: &str, knobs: &[Knob], flags: &[Flag]) -> String {
    let mut out = format!(
        "usage: {program} [--smoke] [-Dkey=value ...]\n{KNOB_COLUMNS}{}",
        knob_table(knobs)
    );
    for (flag, knob) in flags {
        out.push_str(&format!("  {flag} VALUE is -D{knob}=VALUE\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOBS: &[Knob] = &[
        Knob::new("reps", "11", "replicates").smoke("5"),
        Knob::new("think_ms", "1.0", "think time"),
    ];
    const FLAGS: &[Flag] = &[("--reps", "reps")];

    fn parse(args: &[&str]) -> Result<Config, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        Config::parse(KNOBS, FLAGS, &args)
    }

    fn reps(args: &[&str]) -> u64 {
        parse(args).unwrap().get("reps")
    }

    #[test]
    fn default_then_smoke_then_command_line() {
        assert_eq!(reps(&[]), 11, "default");
        assert_eq!(reps(&["--smoke"]), 5, "smoke value over default");
        // The command line wins over the smoke value in either order.
        assert_eq!(reps(&["--smoke", "-Dreps=3"]), 3);
        assert_eq!(reps(&["-Dreps=3", "--smoke"]), 3);
        assert_eq!(reps(&["-Dreps=3"]), 3);
        // A knob without a smoke value keeps its default under --smoke.
        let smoke = parse(&["--smoke"]).unwrap();
        assert_eq!(smoke.get::<f64>("think_ms"), 1.0);
        assert!(smoke.smoke() && !parse(&[]).unwrap().smoke());
    }

    #[test]
    fn the_last_of_two_definitions_wins() {
        assert_eq!(reps(&["-Dreps=3", "-Dreps=4"]), 4);
        assert_eq!(reps(&["--reps", "7", "-Dreps=4"]), 4);
        assert_eq!(reps(&["-Dreps=4", "--reps", "7"]), 7);
    }

    #[test]
    fn the_effective_configuration_is_printable() {
        assert_eq!(parse(&[]).unwrap().render(), "reps=11 think_ms=1.0");
        assert_eq!(
            parse(&["--smoke", "-Dthink_ms=2"]).unwrap().render(),
            "--smoke reps=5 think_ms=2"
        );
        assert_eq!(Config::parse(&[], &[], &[]).unwrap().render(), "(no knobs)");
        let table = knob_table(KNOBS);
        assert!(table.contains("-Dreps") && table.contains("replicates"));
        assert!(usage("x", KNOBS, FLAGS).contains("--reps VALUE is -Dreps=VALUE"));
    }

    #[test]
    #[should_panic(expected = "read but not declared")]
    fn reading_an_undeclared_knob_is_a_bug() {
        parse(&[]).unwrap().str("threads");
    }
}
