//! Minimal `--key value` argument parsing.
//!
//! A hand-rolled parser keeps the dependency tree small (see DESIGN.md);
//! the grammar is `<subcommand> <positional>{arity} (--key value | --flag)*`.
//! `SYNTAX` lists, per subcommand, its exact positional arity, its valued
//! options and its flags. Positionals must precede options. A stray
//! positional, an unlisted option, a valued option without a value and a
//! flag with one are usage errors. A subcommand missing from the table is
//! not checked here: it parses, and dispatch rejects it as unknown.

use std::collections::HashMap;

use crate::CliError;

/// Each subcommand's grammar: its name, how many positional operands it
/// takes (exactly), and every `--name` it reads, space-separated: valued
/// options, then `|` and the flags it reads bare. One row per subcommand
/// `commands::run` dispatches.
const SYNTAX: [(&str, usize, &str); 16] = [
    ("generate", 0, "profile scale seed out format"),
    ("diagnose", 0, "input"),
    ("adapt", 0, "input variant out min-support"),
    ("stats", 0, "graph"),
    (
        "solve",
        0,
        "graph k variant algorithm threads seed top out trace | progress",
    ),
    ("minimize", 0, "graph threshold variant"),
    ("repair", 0, "graph report variant max-changes"),
    ("export-dot", 0, "graph out report min-weight"),
    ("closure", 0, "graph out depth min-weight combine"),
    ("delta", 0, "graph changes out"),
    (
        "serve",
        0,
        "graph threads port host queue cache deadline-ms",
    ),
    ("convert", 2, "to variant"),
    ("probe", 1, "| verify"),
    (
        "gen-graph",
        0,
        "nodes out degree seed | normalized container",
    ),
    ("bench-snapshot", 0, "out grid seed pr repeats | smoke"),
    ("help", 0, ""),
];

/// `command`'s `SYNTAX` row: arity, valued options and flags.
fn syntax(command: &str) -> Option<(usize, &'static str, &'static str)> {
    let &(_, arity, options) = SYNTAX.iter().find(|&&(name, ..)| name == command)?;
    let (valued, flags) = options.split_once('|').unwrap_or((options, ""));
    Some((arity, valued, flags))
}

/// Whether a space-separated name list includes `key`.
fn lists(names: &str, key: &str) -> bool {
    names.split_whitespace().any(|o| o == key)
}

/// Parsed arguments: a subcommand plus positionals and key→value options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first positional token).
    pub command: String,
    /// Positional operands (only for subcommands that declare them).
    positionals: Vec<String>,
    options: HashMap<String, String>,
    /// Keys that appeared without a value (boolean flags).
    flags: Vec<String>,
}

impl Args {
    /// Parses a raw argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| CliError("missing subcommand; try `pcover help`".into()))?;
        if command.starts_with("--") {
            return Err(CliError(format!(
                "expected a subcommand before options, found {command:?}"
            )));
        }
        let syntax = syntax(&command);
        let arity = syntax.map_or(0, |(arity, ..)| arity);
        let mut positionals = Vec::new();
        while positionals.len() < arity {
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    positionals.push(iter.next().expect("peeked"));
                }
                _ => break,
            }
        }
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        while let Some(token) = iter.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| CliError(format!("expected --option, found {token:?}")))?
                .to_owned();
            if key.is_empty() {
                return Err(CliError("empty option name".into()));
            }
            let value = iter.next_if(|next| !next.starts_with("--"));
            let valued = match syntax {
                Some((_, valued, _)) if lists(valued, &key) => true,
                Some((_, _, flags)) if lists(flags, &key) => false,
                Some(_) => return Err(CliError(format!("{command} does not take --{key}"))),
                None => value.is_some(),
            };
            match (valued, value) {
                (false, None) => flags.push(key),
                (true, Some(value)) => {
                    if options.insert(key.clone(), value).is_some() {
                        return Err(CliError(format!("option --{key} given twice")));
                    }
                }
                (true, None) => return Err(CliError(format!("option --{key} needs a value"))),
                (false, Some(_)) => return Err(CliError(format!("flag --{key} takes no value"))),
            }
        }
        Ok(Args {
            command,
            positionals,
            options,
            flags,
        })
    }

    /// The `idx`-th positional operand, named for the error message.
    pub fn positional(&self, idx: usize, name: &str) -> Result<&str, CliError> {
        self.positionals
            .get(idx)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required operand <{name}>")))
    }

    /// Whether this subcommand's `SYNTAX` row lists `key`: a command that
    /// reads an unlisted option fails its own tests.
    fn declares(&self, key: &str) -> bool {
        syntax(&self.command).is_some_and(|(_, v, f)| lists(v, key) || lists(f, key))
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        debug_assert!(
            self.declares(key),
            "{} reads unlisted --{key}",
            self.command
        );
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| CliError(format!("missing required option --{key}")))
    }

    /// An optional string option.
    pub fn optional(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.declares(key),
            "{} reads unlisted --{key}",
            self.command
        );
        self.options.get(key).map(String::as_str)
    }

    /// A parsed required option.
    pub fn required_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let raw = self.required(key)?;
        raw.parse()
            .map_err(|_| CliError(format!("cannot parse --{key} value {raw:?}")))
    }

    /// A parsed optional option with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.optional(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError(format!("cannot parse --{key} value {raw:?}"))),
        }
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        debug_assert!(
            self.declares(key),
            "{} reads unlisted --{key}",
            self.command
        );
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, CliError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["solve", "--k", "10", "--graph", "g.json", "--progress"]).unwrap();
        assert_eq!(a.command, "solve");
        assert_eq!(a.required("k").unwrap(), "10");
        assert_eq!(a.required_parse::<usize>("k").unwrap(), 10);
        assert_eq!(a.optional("graph"), Some("g.json"));
        assert!(a.flag("progress"));
        assert!(!a.flag("k"), "a valued option is not a flag");
        assert_eq!(a.optional("out"), None);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--k", "10"]).is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        assert!(parse(&["solve", "--k", "1", "--k", "2"]).is_err());
    }

    #[test]
    fn missing_required_reports_key() {
        let a = parse(&["solve"]).unwrap();
        let err = a.required("graph").unwrap_err();
        assert!(err.to_string().contains("--graph"));
    }

    #[test]
    fn parse_or_defaults() {
        let a = parse(&["solve", "--k", "7"]).unwrap();
        assert_eq!(a.parse_or::<usize>("threads", 4).unwrap(), 4);
        assert_eq!(a.parse_or::<usize>("k", 1).unwrap(), 7);
        assert!(a.parse_or::<usize>("k", 1).is_ok());
        let bad = parse(&["solve", "--k", "seven"]).unwrap();
        assert!(bad.parse_or::<usize>("k", 1).is_err());
    }

    #[test]
    fn positional_after_command_rejected() {
        assert!(parse(&["solve", "stray"]).is_err());
    }

    #[test]
    fn declared_positionals_are_accepted_in_order() {
        let a = parse(&["convert", "in.json", "out.pcov", "--to", "container"]).unwrap();
        assert_eq!(a.positional(0, "input").unwrap(), "in.json");
        assert_eq!(a.positional(1, "output").unwrap(), "out.pcov");
        assert_eq!(a.optional("to"), Some("container"));

        let a = parse(&["probe", "g.pcov", "--verify"]).unwrap();
        assert_eq!(a.positional(0, "file").unwrap(), "g.pcov");
        assert!(a.flag("verify"));
    }

    #[test]
    fn missing_positional_reports_operand_name() {
        let a = parse(&["probe"]).unwrap();
        let err = a.positional(0, "file").unwrap_err();
        assert!(err.to_string().contains("<file>"), "{err}");
    }

    #[test]
    fn excess_positionals_rejected() {
        // A third operand after convert's two is a usage error.
        assert!(parse(&["convert", "a", "b", "c"]).is_err());
        assert!(parse(&["probe", "a", "b"]).is_err());
    }

    #[test]
    fn every_subcommand_rejects_unlisted_options() {
        for (command, arity, _) in SYNTAX {
            let (_, valued, flags) = syntax(command).unwrap();
            let mut tokens = vec![command];
            tokens.extend(std::iter::repeat_n("operand", arity));
            // Every valued option parses with a value and fails bare; every
            // flag parses bare and fails with a value.
            for (names, needs_value) in [(valued, true), (flags, false)] {
                for key in names.split_whitespace() {
                    let option = format!("--{key}");
                    let mut bare = tokens.clone();
                    bare.push(&option);
                    let mut with = bare.clone();
                    with.push("1");
                    let (good, bad) = if needs_value {
                        (with, bare)
                    } else {
                        (bare, with)
                    };
                    assert!(parse(&good).is_ok(), "{good:?}");
                    let err = parse(&bad).unwrap_err().to_string();
                    assert!(err.contains(&option), "{bad:?}: {err}");
                }
            }
            for bogus in [&["--bogus"][..], &["--bogus", "1"]] {
                let mut with = tokens.clone();
                with.extend(bogus);
                let err = parse(&with).unwrap_err().to_string();
                assert!(err.contains("--bogus"), "{command}: {err}");
            }
        }
    }

    /// The `pcover` command lines of a document: each line (with its `\`
    /// continuations joined) is searched for `target/release/pcover `,
    /// `$P ` (the verify skill's alias for it), `pcover ` opening inline
    /// code, and `cargo run … -p pcover-cli … -- `. The words after one run
    /// up to shell punctuation (`&`, `|`, `;`, a redirect, a `#` comment) or
    /// the end of inline code. Returns each with its 1-based line.
    fn invocations(text: &str) -> Vec<(usize, Vec<String>)> {
        let lines: Vec<&str> = text.lines().collect();
        let mut found = Vec::new();
        let mut i = 0;
        while i < lines.len() {
            let first = i;
            let mut line = lines[i].to_owned();
            while line.trim_end().ends_with('\\') && i + 1 < lines.len() {
                line = format!(
                    "{} {}",
                    line.trim_end().trim_end_matches('\\'),
                    lines[i + 1]
                );
                i += 1;
            }
            i += 1;
            let mut starts = Vec::new();
            if line.contains("cargo run") && line.contains("-p pcover-cli") {
                starts.extend(line.find(" -- ").map(|at| at + 4));
            }
            for (prefix, after) in [
                ("target/release/pcover ", " \t`("),
                ("$P ", " \t`("),
                ("pcover ", "`"),
            ] {
                for (at, _) in line.match_indices(prefix) {
                    let before = line[..at].chars().next_back();
                    if before.is_none_or(|c| after.contains(c)) {
                        starts.push(at + prefix.len());
                    }
                }
            }
            for start in starts {
                let mut words = Vec::new();
                for word in line[start..].split_whitespace() {
                    if ["&", "&&", "|", ";"].contains(&word)
                        || word.starts_with(['#', '>'])
                        || word.starts_with("2>")
                    {
                        break;
                    }
                    if let Some((code, _)) = word.split_once('`') {
                        words.extend(Some(code.to_owned()).filter(|c| !c.is_empty()));
                        break;
                    }
                    words.push(word.to_owned());
                }
                found.push((first + 1, words));
            }
        }
        found
    }

    /// Every `pcover` command line in CI, README and the verify skill
    /// names a known subcommand and parses.
    #[test]
    fn every_documented_command_line_parses() {
        let documents = [
            (
                ".github/workflows/ci.yml",
                include_str!("../../../.github/workflows/ci.yml"),
            ),
            ("README.md", include_str!("../../../README.md")),
            (
                ".claude/skills/verify/SKILL.md",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        for (file, text) in documents {
            let found = invocations(text);
            assert!(
                found.len() >= 10,
                "{file}: only {} command lines",
                found.len()
            );
            for (line, words) in found {
                let at = format!("{file}:{line}: pcover {}", words.join(" "));
                let args = Args::parse(words).unwrap_or_else(|e| panic!("{at}: {}", e.0));
                assert!(syntax(&args.command).is_some(), "{at}: unknown subcommand");
            }
        }
    }
}
