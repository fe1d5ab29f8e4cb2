//! The CLI error/exit-code contract and crash-safe artifact writes.
//!
//! They live here, not in `sioscope-bench`, so the campaign cache can
//! stage its entries through the same machinery the `sioscope` binary
//! uses for artifacts, without a dependency cycle between the two
//! crates.

use std::fmt;
use std::path::{Path, PathBuf};

/// A CLI failure with a stable exit code, so scripts and CI can tell
/// *why* a run failed without parsing stderr:
///
/// * `2` — unusable arguments (unknown flag, unknown id, missing value);
/// * `3` — an I/O failure, always naming the path involved;
/// * `4` — artifacts ran but their checks failed (shape/golden
///   mismatch against the paper's published values, or a campaign run
///   that failed).
#[derive(Debug)]
pub enum CliError {
    /// Arguments could not be understood (exit 2).
    BadArgs(String),
    /// Reading or writing `path` failed (exit 3).
    Io {
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Artifacts disagree with their expected values (exit 4).
    GoldenMismatch(String),
}

impl CliError {
    /// An [`CliError::Io`] for `path`.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        CliError::Io {
            path: path.into(),
            source,
        }
    }

    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::BadArgs(_) => 2,
            CliError::Io { .. } => 3,
            CliError::GoldenMismatch(_) => 4,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::BadArgs(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            CliError::GoldenMismatch(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Report `err` on stderr and exit with its code: the single exit
/// point of [`run_cli`]'s error path.
fn exit_with(err: CliError) -> ! {
    eprintln!("error: {err}");
    std::process::exit(err.exit_code());
}

/// The body of the CLI's `main`: runs `real_main` on the arguments
/// and maps its error to a one-line `error:` on stderr and the error's
/// exit code.
///
/// A reader that closes stdout early (`sioscope repro | head`) is a
/// clean exit 0: `println!` reports the resulting `BrokenPipe` by
/// panicking, and the panic hook installed here turns exactly that
/// panic into an exit instead of the default exit-101 crash.
pub fn run_cli(real_main: impl FnOnce(&[String]) -> Result<(), CliError>) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map_or("", String::as_str);
        if msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = real_main(&args) {
        exit_with(e);
    }
}

/// The scratch sibling `write_atomic` stages into: `<name>.tmp` next
/// to the destination (same directory, hence same filesystem, hence an
/// atomic rename).
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Crash-safe artifact write: stage the contents into a `.tmp` sibling
/// and atomically rename it over the destination. A run killed
/// mid-write leaves either the old artifact or a `.tmp` straggler —
/// never a truncated artifact that a later resume would trust.
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, contents.as_ref()).map_err(|e| CliError::io(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| CliError::io(path, e))
}
