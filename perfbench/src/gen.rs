//! Seeded inputs: RC-mesh netlist text.
//!
//! A seed changes element values and port placement only. Every job of
//! a workload therefore has the same sparsity pattern, port count and
//! node count: one cost class, so a reported percentile never lands on
//! a boundary between job sizes.

use std::fmt::Write as _;

/// SplitMix64. The benchmark carries its own generator so that a change
/// to the library's RNG never changes the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    /// Stream `index` of kind `tag` under the run seed; streams with
    /// different tags or indices are independent.
    pub fn stream(seed: u64, tag: u64, index: u64) -> Rng {
        let mut r = Rng(seed);
        let mut r = Rng(r.next_u64() ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Rng(r.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mesh size and port count: the cost class of a job.
#[derive(Debug, Clone, Copy)]
pub struct MeshShape {
    pub rows: usize,
    pub cols: usize,
    pub ports: usize,
}

impl MeshShape {
    pub fn states(&self) -> usize {
        self.rows * self.cols
    }
}

/// A `rows × cols` RC mesh: unit resistors between neighbours, unit
/// capacitors to ground, and a grounding resistor at each port, every
/// value jittered by ±25 %. Ports sit on distinct seeded nodes.
pub fn mesh_netlist(shape: MeshShape, rng: &mut Rng) -> String {
    let n = shape.states();
    let mut order: Vec<usize> = (0..n).collect();
    for k in 0..shape.ports {
        let j = k + rng.below(n - k);
        order.swap(k, j);
    }
    let mut ports = order[..shape.ports].to_vec();
    ports.sort_unstable();
    let mut value = |nominal: f64| nominal * (0.75 + 0.5 * rng.uniform());

    let node = |i: usize, j: usize| i * shape.cols + j + 1;
    let mut text = String::with_capacity(n * 40);
    let _ = writeln!(
        text,
        "* {}x{} RC mesh, {} ports",
        shape.rows, shape.cols, shape.ports
    );
    for i in 0..shape.rows {
        for j in 0..shape.cols {
            let k = node(i, j);
            let _ = writeln!(text, "C{k} {k} 0 {:.4}", value(1.0));
        }
    }
    let mut r = 0usize;
    for i in 0..shape.rows {
        for j in 0..shape.cols {
            let k = node(i, j);
            if j + 1 < shape.cols {
                r += 1;
                let _ = writeln!(text, "R{r} {k} {} {:.4}", node(i, j + 1), value(1.0));
            }
            if i + 1 < shape.rows {
                r += 1;
                let _ = writeln!(text, "R{r} {k} {} {:.4}", node(i + 1, j), value(1.0));
            }
        }
    }
    for (g, &p) in ports.iter().enumerate() {
        let _ = writeln!(text, "RG{g} {} 0 {:.4}", p + 1, value(2.0));
        let _ = writeln!(text, "PORT {}", p + 1);
    }
    text.push_str(".END\n");
    text
}
