//! The launcher side: a replica process whose stdout is captured line
//! by line, for `net_cluster` to read back.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One spawned replica process plus the thread draining its stdout.
pub struct Instance {
    /// Which replica (`--me`) this process runs as.
    pub me: usize,
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
    reader: JoinHandle<()>,
}

impl Instance {
    /// Spawns `cmd` (a `replica` invocation) as replica `me`, capturing
    /// its stdout.
    pub fn spawn(me: usize, mut cmd: Command) -> std::io::Result<Instance> {
        let mut child = cmd.stdout(Stdio::piped()).spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| std::io::Error::other("stdout was not captured"))?;
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                lock(&sink).push(line);
            }
        });
        Ok(Instance {
            me,
            child,
            lines,
            reader,
        })
    }

    /// Polls the captured stdout for the replica's `ADMIN <addr>` line.
    /// `None` after the timeout.
    pub fn wait_admin(&self, timeout: Duration) -> Option<String> {
        let deadline = Instant::now() + timeout;
        loop {
            let found = lock(&self.lines)
                .iter()
                .find_map(|l| l.strip_prefix("ADMIN ").map(str::to_string));
            if found.is_some() || Instant::now() >= deadline {
                return found;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Waits for exit (SIGKILLs first with `kill`), joins the reader,
    /// and returns `(me, captured stdout lines)`.
    pub fn finish(mut self, kill: bool) -> (usize, Vec<String>) {
        if kill {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = self.reader.join();
        let lines = std::mem::take(&mut *lock(&self.lines));
        (self.me, lines)
    }
}

/// The captured lines; a reader that panicked mid-push leaves whole
/// lines behind, so a poisoned lock is still read.
fn lock(lines: &Mutex<Vec<String>>) -> MutexGuard<'_, Vec<String>> {
    lines.lock().unwrap_or_else(PoisonError::into_inner)
}
