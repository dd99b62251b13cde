//! Netlist representation and MNA (modified nodal analysis) assembly.
//!
//! A [`Netlist`] collects R/L/C elements and ports, then
//! [`Netlist::build`] stamps them into the descriptor form
//! `C·ẋ + G·x = B·u`, `y = Lᵀ·x`, returned as an
//! [`lti::Descriptor`] with `E = C`, `A = −G`.
//!
//! State vector layout: node voltages (ground excluded) first, then one
//! current unknown per inductor.
//!
//! Port convention: a port injects a current at a node (input `uₖ` in
//! amperes) and observes the same node's voltage (output `yₖ` in volts),
//! so the transfer function is the port impedance matrix `Z(s)` — the
//! standard view for parasitic networks.

use lti::Descriptor;
use numkit::{DMat, NumError};
use sparsekit::Triplet;

/// A node identifier. Node 0 is ground.
pub type NodeId = usize;

/// One element of a netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Element {
    /// Resistor between two nodes, in ohms.
    Resistor(NodeId, NodeId, f64),
    /// Capacitor between two nodes, in farads.
    Capacitor(NodeId, NodeId, f64),
    /// Inductor between two nodes, in henries. Carries its branch index.
    Inductor(NodeId, NodeId, f64),
    /// Mutual inductance `M` (henries) between two inductor branches,
    /// identified by their insertion order among inductors.
    Mutual(usize, usize, f64),
}

/// A builder for linear RLC(+M) circuits with current-injection ports.
///
/// # Examples
///
/// ```
/// use circuits::Netlist;
///
/// # fn main() -> Result<(), numkit::NumError> {
/// // RC low-pass: port at node 1, R to node 2, C to ground.
/// let mut nl = Netlist::new();
/// nl.resistor(1, 2, 1e3);
/// nl.capacitor(2, 0, 1e-12);
/// nl.resistor(2, 0, 1e4); // dc path to ground
/// nl.port(1);
/// let sys = nl.build()?;
/// assert_eq!(sys.nstates(), 2);
/// assert_eq!(sys.ninputs(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    elements: Vec<Element>,
    ports: Vec<NodeId>,
    probes: Vec<NodeId>,
    max_node: NodeId,
    n_inductors: usize,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    fn touch(&mut self, n: NodeId) {
        self.max_node = self.max_node.max(n);
    }

    /// Adds a resistor of `ohms` between `n1` and `n2`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite.
    pub fn resistor(&mut self, n1: NodeId, n2: NodeId, ohms: f64) -> &mut Self {
        assert!(ohms > 0.0 && ohms.is_finite(), "resistance must be positive");
        self.touch(n1);
        self.touch(n2);
        self.elements.push(Element::Resistor(n1, n2, ohms));
        self
    }

    /// Adds a capacitor of `farads` between `n1` and `n2`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    pub fn capacitor(&mut self, n1: NodeId, n2: NodeId, farads: f64) -> &mut Self {
        assert!(farads > 0.0 && farads.is_finite(), "capacitance must be positive");
        self.touch(n1);
        self.touch(n2);
        self.elements.push(Element::Capacitor(n1, n2, farads));
        self
    }

    /// Adds an inductor of `henries` between `n1` and `n2`, returning its
    /// branch index for use with [`Netlist::mutual`].
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not strictly positive and finite.
    pub fn inductor(&mut self, n1: NodeId, n2: NodeId, henries: f64) -> usize {
        assert!(henries > 0.0 && henries.is_finite(), "inductance must be positive");
        self.touch(n1);
        self.touch(n2);
        self.elements.push(Element::Inductor(n1, n2, henries));
        let idx = self.n_inductors;
        self.n_inductors += 1;
        idx
    }

    /// Adds mutual inductance `M` between inductor branches `l1` and `l2`
    /// (indices returned by [`Netlist::inductor`]).
    ///
    /// # Panics
    ///
    /// Panics if the branch indices are invalid or equal, or `m` is not
    /// finite.
    pub fn mutual(&mut self, l1: usize, l2: usize, m: f64) -> &mut Self {
        assert!(l1 < self.n_inductors && l2 < self.n_inductors && l1 != l2, "invalid branches");
        assert!(m.is_finite(), "mutual inductance must be finite");
        self.elements.push(Element::Mutual(l1, l2, m));
        self
    }

    /// Declares a port at `node`: current input + voltage output there.
    ///
    /// # Panics
    ///
    /// Panics if `node` is ground (0).
    pub fn port(&mut self, node: NodeId) -> &mut Self {
        assert!(node != 0, "cannot place a port at ground");
        self.touch(node);
        self.ports.push(node);
        self
    }

    /// Declares a voltage probe (output-only) at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is ground (0).
    pub fn probe(&mut self, node: NodeId) -> &mut Self {
        assert!(node != 0, "cannot probe ground");
        self.touch(node);
        self.probes.push(node);
        self
    }

    /// Number of ports declared so far.
    pub fn nports(&self) -> usize {
        self.ports.len()
    }

    /// Deterministic structural hash of the netlist — the circuit-level
    /// companion of [`lti::Descriptor::pencil_hash`], available
    /// *before* paying for MNA assembly. R/C/M elements combine
    /// commutatively (stamping sums them, so insertion order cannot
    /// change the built system); inductors fold in their branch index,
    /// because branch numbering decides the state layout. Equal hashes
    /// are a grouping hint, not a correctness claim — the artifact
    /// cache itself keys on the assembled pencil's content address.
    pub fn structural_hash(&self) -> u64 {
        use lti::hash::Fnv64;
        let element = |tag: u64, a: u64, b: u64, v: f64| -> u64 {
            let mut h = Fnv64::new();
            h.word(tag).word(a).word(b).word(v.to_bits());
            h.finish()
        };
        let mut inductor_branch = 0u64;
        let mut acc = 0u64;
        for e in &self.elements {
            acc = acc.wrapping_add(match *e {
                Element::Resistor(n1, n2, ohms) => element(1, n1 as u64, n2 as u64, ohms),
                Element::Capacitor(n1, n2, farads) => element(2, n1 as u64, n2 as u64, farads),
                Element::Inductor(n1, n2, henries) => {
                    let mut h = Fnv64::new();
                    h.word(3).word(n1 as u64).word(n2 as u64).word(henries.to_bits());
                    h.word(inductor_branch);
                    inductor_branch += 1;
                    h.finish()
                }
                Element::Mutual(l1, l2, m) => element(4, l1 as u64, l2 as u64, m),
            });
        }
        let mut h = Fnv64::new();
        h.label("pmtbr-netlist-v1");
        h.word(self.max_node as u64).word(self.n_inductors as u64);
        h.word(self.elements.len() as u64).word(acc);
        // Port/probe order fixes the input/output column layout, so it
        // folds in sequentially, not commutatively.
        h.word(self.ports.len() as u64);
        for &p in &self.ports {
            h.word(p as u64);
        }
        h.word(self.probes.len() as u64);
        for &p in &self.probes {
            h.word(p as u64);
        }
        h.finish()
    }

    /// Assembles the MNA descriptor system.
    ///
    /// Outputs are ordered: port voltages first, then probe voltages.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidArgument`] if no ports were declared.
    pub fn build(&self) -> Result<Descriptor, NumError> {
        let mut sp = obs::span("netlist.build");
        sp.field_u64("elements", self.elements.len() as u64);
        sp.field_u64("ports", self.ports.len() as u64);
        if self.ports.is_empty() {
            return Err(NumError::InvalidArgument("netlist has no ports"));
        }
        // Reject floating nodes: every node 1..=max_node must be touched
        // by some element or port, or MNA produces an all-zero row.
        let mut touched = vec![false; self.max_node + 1];
        for e in &self.elements {
            match *e {
                Element::Resistor(a, b, _)
                | Element::Capacitor(a, b, _)
                | Element::Inductor(a, b, _) => {
                    touched[a] = true;
                    touched[b] = true;
                }
                Element::Mutual(..) => {}
            }
        }
        for &p in self.ports.iter().chain(&self.probes) {
            touched[p] = true;
        }
        if touched[1..].iter().any(|&t| !t) {
            return Err(NumError::InvalidArgument(
                "netlist has unconnected node numbers (nodes must be contiguous 1..=max)",
            ));
        }
        let n_nodes = self.max_node; // nodes 1..=max_node are unknowns
        let n = n_nodes + self.n_inductors;
        let mut g = Triplet::new(n, n);
        let mut c = Triplet::new(n, n);
        // Map node id -> state index (ground has none).
        let idx = |node: NodeId| -> Option<usize> { (node > 0).then(|| node - 1) };
        let mut l_branch = 0usize;
        let mut l_values = vec![0.0f64; self.n_inductors];
        for e in &self.elements {
            match *e {
                Element::Resistor(n1, n2, r) => {
                    let gval = 1.0 / r;
                    stamp_conductance(&mut g, idx(n1), idx(n2), gval);
                }
                Element::Capacitor(n1, n2, cap) => {
                    stamp_conductance(&mut c, idx(n1), idx(n2), cap);
                }
                Element::Inductor(n1, n2, l) => {
                    let bi = n_nodes + l_branch;
                    l_values[l_branch] = l;
                    // KCL: branch current leaves n1, enters n2.
                    if let Some(i1) = idx(n1) {
                        g.push(i1, bi, 1.0);
                    }
                    if let Some(i2) = idx(n2) {
                        g.push(i2, bi, -1.0);
                    }
                    // Branch: L·di/dt − v1 + v2 = 0.
                    c.push(bi, bi, l);
                    if let Some(i1) = idx(n1) {
                        g.push(bi, i1, -1.0);
                    }
                    if let Some(i2) = idx(n2) {
                        g.push(bi, i2, 1.0);
                    }
                    l_branch += 1;
                }
                Element::Mutual(l1, l2, m) => {
                    let b1 = n_nodes + l1;
                    let b2 = n_nodes + l2;
                    c.push(b1, b2, m);
                    c.push(b2, b1, m);
                }
            }
        }
        // Inputs: current injected into each port node. Outputs: voltages.
        let p = self.ports.len();
        let q = p + self.probes.len();
        let mut b = DMat::zeros(n, p);
        let mut lout = DMat::zeros(q, n);
        for (k, &node) in self.ports.iter().enumerate() {
            let i = idx(node)
                .ok_or(NumError::InvalidArgument("port cannot attach to the ground node"))?;
            b[(i, k)] = 1.0;
            lout[(k, i)] = 1.0;
        }
        for (k, &node) in self.probes.iter().enumerate() {
            let i = idx(node)
                .ok_or(NumError::InvalidArgument("probe cannot attach to the ground node"))?;
            lout[(p + k, i)] = 1.0;
        }
        // Descriptor: E = C, A = −G.
        let a = {
            let mut t = Triplet::new(n, n);
            for (i, j, v) in g.to_csr().iter() {
                t.push(i, j, -v);
            }
            t.to_csr()
        };
        Descriptor::new(c.to_csr(), a, b, lout, None)
    }
}

/// Stamps a two-terminal admittance-like value into a symmetric matrix.
fn stamp_conductance(t: &mut Triplet<f64>, i1: Option<usize>, i2: Option<usize>, val: f64) {
    match (i1, i2) {
        (Some(a), Some(b)) => {
            t.push(a, a, val);
            t.push(b, b, val);
            t.push(a, b, -val);
            t.push(b, a, -val);
        }
        (Some(a), None) | (None, Some(a)) => t.push(a, a, val),
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::c64;

    #[test]
    fn rc_lowpass_impedance() {
        // Port at node 1; R = 1 to ground; C = 1 to ground: Z = R/(1+sRC).
        let mut nl = Netlist::new();
        nl.resistor(1, 0, 1.0);
        nl.capacitor(1, 0, 1.0);
        nl.port(1);
        let sys = nl.build().unwrap();
        for &w in &[0.0, 0.5, 2.0] {
            let s = c64::new(0.0, w);
            let z = sys.transfer_function(s).unwrap()[(0, 0)];
            let expect = c64::ONE / (c64::ONE + s);
            assert!((z - expect).abs() < 1e-12, "w={w}");
        }
    }

    #[test]
    fn series_rl_impedance() {
        // Port node 1 — L — node 2 — R — ground: Z = R + sL.
        let mut nl = Netlist::new();
        nl.inductor(1, 2, 2.0);
        nl.resistor(2, 0, 3.0);
        nl.port(1);
        let sys = nl.build().unwrap();
        let s = c64::new(0.0, 1.5);
        let z = sys.transfer_function(s).unwrap()[(0, 0)];
        let expect = c64::from_real(3.0) + s.scale(2.0);
        assert!((z - expect).abs() < 1e-10, "got {z}, want {expect}");
    }

    #[test]
    fn coupled_inductors_reflect_mutual() {
        // Two loops sharing flux: port1 - L1 - R - gnd; port2 - L2 - R - gnd,
        // with M coupling. Z12 at dc is 0, at high ω grows with M.
        let mut nl = Netlist::new();
        let l1 = nl.inductor(1, 3, 1.0);
        let l2 = nl.inductor(2, 4, 1.0);
        nl.resistor(3, 0, 1.0);
        nl.resistor(4, 0, 1.0);
        nl.mutual(l1, l2, 0.5);
        nl.port(1);
        nl.port(2);
        let sys = nl.build().unwrap();
        let z0 = sys.transfer_function(c64::new(0.0, 1e-6)).unwrap();
        assert!(z0[(0, 1)].abs() < 1e-5, "no dc coupling");
        let z1 = sys.transfer_function(c64::new(0.0, 1.0)).unwrap();
        assert!(z1[(0, 1)].abs() > 0.1, "ac coupling via mutual inductance");
        // Reciprocity: Z12 = Z21.
        assert!((z1[(0, 1)] - z1[(1, 0)]).abs() < 1e-10);
    }

    #[test]
    fn probe_adds_output_only() {
        let mut nl = Netlist::new();
        nl.resistor(1, 2, 1.0);
        nl.resistor(2, 0, 1.0);
        nl.capacitor(2, 0, 1.0);
        nl.port(1);
        nl.probe(2);
        let sys = nl.build().unwrap();
        assert_eq!(sys.ninputs(), 1);
        assert_eq!(sys.noutputs(), 2);
        // Voltage divider at dc: v2 = 1 * 1A = 1V; v1 = 2V.
        let h = sys.transfer_function(c64::ZERO).unwrap();
        assert!((h[(0, 0)].re - 2.0).abs() < 1e-10);
        assert!((h[(1, 0)].re - 1.0).abs() < 1e-10);
    }

    #[test]
    fn structural_hash_commutes_over_rc_order_but_sees_values() {
        let build = |swap: bool, ohms: f64| {
            let mut nl = Netlist::new();
            if swap {
                nl.capacitor(2, 0, 1e-12);
                nl.resistor(1, 2, ohms);
            } else {
                nl.resistor(1, 2, ohms);
                nl.capacitor(2, 0, 1e-12);
            }
            nl.port(1);
            nl
        };
        // R/C insertion order cannot change the MNA result → same hash.
        assert_eq!(build(false, 1e3).structural_hash(), build(true, 1e3).structural_hash());
        // Any value change must change the address.
        assert_ne!(build(false, 1e3).structural_hash(), build(false, 2e3).structural_hash());
        // And the built descriptors content-address identically too.
        assert_eq!(
            build(false, 1e3).build().unwrap().pencil_hash(),
            build(true, 1e3).build().unwrap().pencil_hash()
        );
    }

    #[test]
    fn portless_netlist_rejected() {
        let mut nl = Netlist::new();
        nl.resistor(1, 0, 1.0);
        assert!(nl.build().is_err());
    }

    #[test]
    fn rc_mna_is_symmetric() {
        // RC-only networks must produce symmetric E and A (paper's
        // symmetric case, Section III-A).
        let mut nl = Netlist::new();
        nl.resistor(1, 2, 1.0);
        nl.resistor(2, 3, 2.0);
        nl.resistor(3, 0, 1.0);
        nl.capacitor(1, 0, 1.0);
        nl.capacitor(2, 0, 2.0);
        nl.capacitor(3, 2, 0.5);
        nl.port(1);
        let sys = nl.build().unwrap();
        let a = sys.a.to_dense();
        let e = sys.e.to_dense();
        assert!((&a - &a.transpose()).norm_max() < 1e-15);
        assert!((&e - &e.transpose()).norm_max() < 1e-15);
        // And C = Bᵀ by the port convention.
        assert!((&sys.c - &sys.b.transpose()).norm_max() < 1e-15);
    }
}
