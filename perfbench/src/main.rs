//! perfbench — the repository benchmark for the sunos-mt library.
//!
//! One binary plays every role:
//!
//! * `perfbench run --workload W --seed N --seconds S --trace 0|1
//!   --run-dir D` runs one workload and prints its result as the last
//!   line of standard output (see `README.md` in this directory);
//! * `perfbench server --dir D` is the database server it starts;
//! * `perfbench pipeline --seed N` is the channel-pipeline process.

mod hist;
mod layers;
mod pipeline;
mod proto;
mod runner;
mod server;
mod verify;

use std::collections::HashMap;

/// `--key value` command-line pairs.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut map = HashMap::new();
        for pair in raw.chunks(2) {
            match pair {
                [k, v] if k.starts_with("--") => {
                    map.insert(k[2..].to_string(), v.clone());
                }
                _ => usage(&format!("bad argument '{}'", pair[0])),
            }
        }
        Args(map)
    }

    /// The value of `--key`; exits with usage if absent.
    pub fn get(&self, key: &str) -> &str {
        match self.0.get(key) {
            Some(v) => v,
            None => usage(&format!("missing --{key}")),
        }
    }

    /// The value of `--key` as a number; exits with usage if malformed.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> T {
        match self.get(key).parse() {
            Ok(v) => v,
            Err(_) => usage(&format!("--{key} must be a number")),
        }
    }
}

fn usage(err: &str) -> ! {
    eprintln!(
        "perfbench: {err}\nusage: perfbench run --workload db_read|db_hot|chan_pipeline \
         --seed N --seconds S --trace 0|1 --run-dir DIR"
    );
    std::process::exit(2)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((role, rest)) = raw.split_first() else {
        usage("missing role")
    };
    let args = Args::parse(rest);
    match role.as_str() {
        "run" => std::process::exit(runner::main(&args)),
        "server" => server::main(&args),
        "pipeline" => pipeline::main(&args),
        other => usage(&format!("unknown role '{other}'")),
    }
}
