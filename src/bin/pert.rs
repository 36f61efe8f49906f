//! `pert` — the initial-condition perturbation singleton (paper Tables
//! 1-2 time exactly this executable).
//!
//! Reads the prior error subspace and the mean state from the shared
//! working directory, generates perturbation `--member`, and writes the
//! member's initial-condition file. Deterministic per member index, so
//! any host can (re)generate any member (§4.2).
//!
//! ```text
//! pert --workdir DIR --member J [--white-noise E] [--base-seed S]
//! ```

use esse::cli::{self, files};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::fileio;

const USAGE: &str = "pert --workdir DIR --member J [--white-noise E] [--base-seed S]";

fn main() {
    let args = cli::args(USAGE);
    let workdir = std::path::PathBuf::from(cli::require(&args, "workdir", USAGE));
    let member: usize = cli::require(&args, "member", USAGE).parse().unwrap_or_else(|e| {
        eprintln!("bad --member: {e}");
        std::process::exit(2);
    });
    let white_noise: f64 = cli::get_or(&args, "white-noise", 0.0);
    let base_seed: u64 = cli::get_or(&args, "base-seed", 0x5EED);

    let prior = match fileio::read_subspace(workdir.join(files::PRIOR)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pert: cannot read prior subspace: {e}");
            std::process::exit(1);
        }
    };
    let mean = match fileio::read_vector(workdir.join(files::MEAN)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pert: cannot read mean state: {e}");
            std::process::exit(1);
        }
    };
    if mean.len() != prior.state_dim() {
        eprintln!(
            "pert: mean length {} does not match subspace dimension {}",
            mean.len(),
            prior.state_dim()
        );
        std::process::exit(1);
    }
    let cfg = PerturbConfig { white_noise, base_seed, frozen_indices: Vec::new() };
    let gen = PerturbationGenerator::new(&prior, cfg);
    let ic = gen.perturb(&mean, member);
    if let Err(e) = fileio::write_vector(workdir.join(files::ic(member as u64)), &ic) {
        eprintln!("pert: cannot write IC: {e}");
        std::process::exit(1);
    }
}
