//! The one command-line parser of the workspace's binaries.
//!
//! A binary is a table of commands, each written as its synopsis: the
//! command's words (a bracketed `[sweep]` may be left out; a one-command
//! binary has none), then its one operand, if any (`DIR`), then its flags
//! — `[--full]` a switch, `[--out PATH]` a flag with a value,
//! `--addr HOST:PORT` one the command requires. An upper-case
//! value label names the value (`N` a count), a lower-case one lists the
//! values the flag takes (`[--set regular|irregular]`). [`parse`] reads a
//! command line against the table, so the usage a user sees is the
//! grammar the parser applies. An unknown command or flag, a flag the
//! command does not take, a missing, repeated or malformed value, a
//! missing required flag and the wrong number of operands are each a
//! one-line error, which every binary prints before it exits 2. Nothing is
//! silently ignored.
//!
//! Each binary's parse is a library function, so tests call it directly:
//! [`bench_sweep`] and [`fuzz_smoke`] here,
//! [`figure::parse`](crate::figure::parse), and the sweep service's two in
//! `warpweave_serve::cli`.

use warpweave_core::SmConfig;
use warpweave_isa::fuzz::parse_seed;

use crate::grid;

/// A command line read against a table of synopses.
#[derive(Debug)]
pub struct Args {
    /// The command's words (`golden check`).
    pub command: String,
    /// Its operands, in order.
    pub operands: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// A synopsis's command words, unbracketed (`[sweep]` is a word a line
/// may leave out), and its operand label, if any.
fn head(synopsis: &str) -> (Vec<&str>, Option<&str>) {
    let mut words: Vec<&str> = synopsis
        .split_whitespace()
        .take_while(|t| !t.trim_start_matches('[').starts_with("--"))
        .map(|t| t.trim_matches(['[', ']']))
        .collect();
    let operand = words.pop_if(|t| t.starts_with(|c: char| c.is_uppercase()));
    (words, operand)
}

/// The flags `synopsis` takes: each one's value label (`None` for a
/// switch) and whether the command requires it.
fn flags(synopsis: &str) -> Vec<(&str, Option<&str>, bool)> {
    let mut tokens = synopsis.split_whitespace();
    let mut flags = Vec::new();
    while let Some(t) = tokens.next() {
        if t.trim_start_matches('[').starts_with("--") {
            let label = match t.ends_with(']') {
                true => None,
                false => tokens.next().map(|l| l.trim_end_matches(']')),
            };
            flags.push((t.trim_matches(['[', ']']), label, !t.starts_with('[')));
        }
    }
    flags
}

/// Reads `args` (without the program name) against the synopses of
/// `commands`; a command whose synopsis opens with `[` runs when the line
/// names none.
///
/// # Errors
/// The one-line usage error.
pub fn parse<S: AsRef<str>>(commands: &[S], args: &[String]) -> Result<Args, String> {
    let commands: Vec<&str> = commands.iter().map(AsRef::as_ref).collect();
    let names: Vec<Vec<&str>> = commands.iter().map(|c| head(c).0).collect();
    let named = names
        .iter()
        .position(|words| args.len() >= words.len() && words.iter().zip(args).all(|(w, a)| w == a));
    let bare = args.first().is_none_or(|a| a.starts_with("--"));
    let default = commands
        .iter()
        .position(|c| c.starts_with('['))
        .filter(|_| bare);
    let Some(i) = named.or(default) else {
        let all: Vec<String> = names.iter().map(|words| words.join(" ")).collect();
        let all = all.join(", ");
        return Err(match bare {
            true => format!("name a command ({all})"),
            false => format!("unknown command `{}` ({all})", args[0]),
        });
    };
    let (synopsis, words) = (commands[i], &names[i]);
    let takes = flags(synopsis);
    let mut parsed = Args {
        command: words.join(" "),
        operands: Vec::new(),
        flags: Vec::new(),
    };
    let skip = if named.is_some() { words.len() } else { 0 };
    let mut rest = args[skip..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.operands.push(arg.clone());
            continue;
        }
        let value = match takes.iter().find(|(flag, _, _)| flag == arg) {
            Some((_, Some(label), _)) => match rest.next().filter(|v| !v.starts_with("--")) {
                Some(value) => Some(checked(arg, label, value)?),
                None => return Err(format!("{arg} takes a value")),
            },
            Some((_, None, _)) => None,
            None if commands
                .iter()
                .any(|c| flags(c).iter().any(|(f, _, _)| f == arg)) =>
            {
                return Err(format!("{} does not take {arg}", parsed.command));
            }
            None => return Err(format!("unknown flag `{arg}`")),
        };
        if parsed.has(arg) {
            return Err(format!("{arg} given twice"));
        }
        parsed.flags.push((arg.clone(), value));
    }
    let wanted = usize::from(head(synopsis).1.is_some());
    let missing = takes
        .iter()
        .any(|(f, _, required)| *required && !parsed.has(f));
    if missing || parsed.operands.len() != wanted {
        return Err(format!("usage: {synopsis}"));
    }
    Ok(parsed)
}

/// `value`, if its label allows it: `N` a count, a lower-case label one
/// of the `|`-separated values it lists.
fn checked(flag: &str, label: &str, value: &str) -> Result<String, String> {
    let (ok, takes) = match label {
        "N" => (value.parse::<usize>().is_ok(), "a count"),
        l if l.starts_with(|c: char| c.is_lowercase()) => (l.split('|').any(|v| v == value), l),
        _ => (true, label),
    };
    match ok {
        true => Ok(value.into()),
        false => Err(format!("{flag} takes {takes}, got `{value}`")),
    }
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// The value of an `N` flag, if given ([`parse`] checked it is a count).
    pub fn number(&self, flag: &str) -> Option<usize> {
        self.value(flag)?.parse().ok()
    }
}

/// `bench_sweep`'s commands.
const BENCH_SWEEP: [&str; 4] = [
    "[sweep] [--full] [--frontend NAMES] [--out PATH] [--threads N]",
    "golden check [--golden PATH] [--threads N]",
    "golden record [--golden PATH] [--threads N]",
    "frontends",
];

/// A `bench_sweep` command line and the grid its flags select.
#[derive(Debug)]
pub struct Sweep {
    /// The command line.
    pub args: Args,
    /// The grid's columns: the fig. 7 front-ends, or `--frontend`'s.
    pub configs: Vec<SmConfig>,
}

/// Parses `bench_sweep`'s arguments (without the program name).
///
/// # Errors
/// The one-line usage error: besides [`parse`]'s, an unknown `--frontend`
/// policy or one listed twice.
pub fn bench_sweep(args: &[String]) -> Result<Sweep, String> {
    let args = parse(&BENCH_SWEEP, args)?;
    let configs = match args.value("--frontend") {
        Some(names) => SmConfig::with_policies(names.split(',').map(str::trim))
            .map_err(|e| format!("--frontend: {e}"))?,
        None => grid::figure7_configs(),
    };
    Ok(Sweep { args, configs })
}

/// `fuzz_smoke`'s commands.
const FUZZ_SMOKE: [&str; 2] = [
    "[sweep] [--count N] [--seed S] [--profile balanced|regular|pathological|memory_heavy] \
     [--repro PATH] [--out PATH]",
    "emit-corpus DIR",
];

/// Parses `fuzz_smoke`'s arguments (without the program name) into the
/// command line and its base seed (`--seed`, default `0xf0225eed`).
///
/// # Errors
/// The one-line usage error: besides [`parse`]'s, a malformed seed.
pub fn fuzz_smoke(args: &[String]) -> Result<(Args, u64), String> {
    let args = parse(&FUZZ_SMOKE, args)?;
    let seed = match args.value("--seed") {
        Some(v) => parse_seed(v).ok_or(format!("--seed takes decimal or 0x-hex, got `{v}`"))?,
        None => 0xf022_5eed,
    };
    Ok((args, seed))
}
