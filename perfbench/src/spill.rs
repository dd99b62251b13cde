//! Reduced models kept on disk between the timed phase and the checks.
//!
//! Every job's model must be checked against the full model, and the
//! references may only be computed after the timed phase. Held in
//! memory, the models would raise the process's peak RSS with the
//! number of jobs a run completes, so a faster program would read as a
//! memory regression. The spill file lives in the working directory and
//! is removed when the run ends.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use lti::StateSpace;
use numkit::DMat;

pub struct Spill {
    file: File,
    path: PathBuf,
    /// Byte range of each stored model.
    ranges: Vec<(u64, usize)>,
    end: u64,
}

impl Spill {
    pub fn create() -> Result<Spill, String> {
        let path = PathBuf::from(format!("perfbench-{}.spill", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| format!("spill file {}: {e}", path.display()))?;
        Ok(Spill {
            file,
            path,
            ranges: Vec::new(),
            end: 0,
        })
    }

    /// Appends `m`; returns its index.
    pub fn push(&mut self, m: &StateSpace) -> Result<usize, String> {
        let mut buf = Vec::new();
        for x in [&m.a, &m.b, &m.c, &m.d] {
            buf.extend_from_slice(&(x.nrows() as u64).to_le_bytes());
            buf.extend_from_slice(&(x.ncols() as u64).to_le_bytes());
            for i in 0..x.nrows() {
                for j in 0..x.ncols() {
                    buf.extend_from_slice(&x[(i, j)].to_bits().to_le_bytes());
                }
            }
        }
        self.file
            .seek(SeekFrom::Start(self.end))
            .map_err(|e| e.to_string())?;
        self.file.write_all(&buf).map_err(|e| e.to_string())?;
        self.ranges.push((self.end, buf.len()));
        self.end += buf.len() as u64;
        Ok(self.ranges.len() - 1)
    }

    /// The model stored at `index`, bit for bit.
    pub fn get(&mut self, index: usize) -> Result<StateSpace, String> {
        let &(start, len) = self.ranges.get(index).ok_or("no such spilled model")?;
        let mut buf = vec![0u8; len];
        self.file
            .seek(SeekFrom::Start(start))
            .map_err(|e| e.to_string())?;
        self.file.read_exact(&mut buf).map_err(|e| e.to_string())?;
        let mut words = buf
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks of eight bytes")));
        let mut mat = || -> Result<DMat, String> {
            let (rows, cols) = match (words.next(), words.next()) {
                (Some(r), Some(c)) => (r as usize, c as usize),
                _ => return Err("truncated spilled model".into()),
            };
            let mut m = DMat::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    m[(i, j)] = f64::from_bits(words.next().ok_or("truncated spilled model")?);
                }
            }
            Ok(m)
        };
        let (a, b, c, d) = (mat()?, mat()?, mat()?, mat()?);
        StateSpace::new(a, b, c, Some(d)).map_err(|e| e.to_string())
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
