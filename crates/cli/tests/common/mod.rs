//! Helpers shared by the CLI's process-level tests.

/// Messages the fault injector panics with (`PMTBR_FAULT=…kinds=panic`).
/// A stage or worker catches each of these panics and records the
/// failure, yet the default panic hook still prints it to stderr first.
const INJECTED: [&str; 2] = ["injected chaos panic", "injected worker panic"];

/// The panic-hook reports in `stderr` whose message is not one the
/// fault injector raises. The hook prints `thread '…' panicked at
/// <file>:<line>:<col>:` and the message on the next line, so a report
/// with any other message — or none — is a panic the injector did not
/// cause.
pub fn foreign_panics(stderr: &str) -> Vec<String> {
    let lines: Vec<&str> = stderr.lines().collect();
    lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains(" panicked at "))
        .filter_map(|(i, l)| {
            let message = lines.get(i + 1).copied().unwrap_or("");
            let injected = INJECTED.iter().any(|m| message.starts_with(m));
            (!injected).then(|| format!("{l} {message}"))
        })
        .collect()
}
