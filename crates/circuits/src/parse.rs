//! A small SPICE-flavored netlist parser.
//!
//! Supported card types (case-insensitive, `*` or `;` comments):
//!
//! ```text
//! * name  n+  n-  value
//! R1      1   2   1k          ; resistor, ohms
//! C1      2   0   0.5p        ; capacitor, farads
//! L1      2   3   10n         ; inductor, henries
//! K1      L1  L2  0.4         ; mutual coupling coefficient |k| < 1
//! PORT    1                   ; current-in/voltage-out port
//! PROBE   3                   ; voltage probe (output only)
//! .END                        ; optional terminator
//! ```
//!
//! Values accept engineering suffixes `f p n u m k meg g t` (SPICE
//! convention: `m` = milli, `meg` = mega). Node labels are arbitrary
//! identifiers (`0`/`gnd` is ground); they are mapped to dense internal
//! indices in order of first appearance.
//!
//! The parser makes one pass over the text and allocates nothing per
//! line: a card's tokens are borrowed slices of the input held in fixed
//! slots, and the node and element-name tables are keyed by those
//! borrowed labels, compared and hashed without ASCII case. Only an
//! error message pays for an upper-cased copy of a name.

// The tables are std `HashMap`s with the default (randomly keyed)
// hasher, because netlist text arrives over TCP and a fixed hash would
// let a client choose colliding labels. They are looked up and never
// iterated: node numbers come from first appearance and elements are
// pushed in card order, so the built system — and the MNA stamp order
// that decides LU pivot tie-breaks — cannot depend on hash order
// (numlint DET01).
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::{Netlist, NodeId};

/// Error produced while parsing a netlist file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line number of the offending card.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "netlist parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseNetlistError {}

fn err(line: usize, message: impl Into<String>) -> ParseNetlistError {
    ParseNetlistError { line, message: message.into() }
}

/// Parses an engineering-notation value like `4.7k`, `10n`, `2meg`.
fn parse_value(tok: &str, line: usize) -> Result<f64, ParseNetlistError> {
    let bytes = tok.as_bytes();
    let n = bytes.len();
    // A matched suffix is ASCII, so cutting it off stays on a char
    // boundary.
    let (mult, digits) = if n >= 3 && bytes[n - 3..].eq_ignore_ascii_case(b"meg") {
        (1e6, &tok[..n - 3])
    } else {
        let suffix = match bytes.last().map(u8::to_ascii_lowercase) {
            Some(b'f') => Some(1e-15),
            Some(b'p') => Some(1e-12),
            Some(b'n') => Some(1e-9),
            Some(b'u') => Some(1e-6),
            Some(b'm') => Some(1e-3),
            Some(b'k') => Some(1e3),
            Some(b'g') => Some(1e9),
            Some(b't') => Some(1e12),
            _ => None,
        };
        match suffix {
            Some(mult) => (mult, &tok[..n - 1]),
            None => (1.0, tok),
        }
    };
    // `f64::from_str` reads `e`/`E`, `inf` and `nan` in any case, so the
    // digits need no folding.
    digits
        .parse::<f64>()
        .map(|v| v * mult)
        .map_err(|_| err(line, format!("invalid value `{tok}`")))
}

/// A label borrowed from the netlist text that compares and hashes
/// without ASCII case, so `N1`/`n1` and `R1`/`r1` meet in one table
/// entry without an allocated folded copy.
#[derive(Clone, Copy)]
struct Label<'a>(&'a str);

impl PartialEq for Label<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.eq_ignore_ascii_case(other.0)
    }
}

impl Eq for Label<'_> {}

impl Hash for Label<'_> {
    /// Hashes the upper-case fold of the label, 32 bytes at a time, so
    /// labels equal without case feed the hasher the same writes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut folded = [0u8; 32];
        for chunk in self.0.as_bytes().chunks(folded.len()) {
            let folded = &mut folded[..chunk.len()];
            folded.copy_from_slice(chunk);
            folded.make_ascii_uppercase();
            state.write(folded);
        }
        state.write_u8(0xff);
    }
}

/// Maps a node label to its dense 1-based index (0 = ground), numbering
/// new labels in order of first appearance.
fn resolve<'a>(nodes: &mut HashMap<Label<'a>, NodeId>, tok: &'a str) -> NodeId {
    if tok == "0" || tok.eq_ignore_ascii_case("gnd") {
        return 0;
    }
    let next = nodes.len() + 1;
    *nodes.entry(Label(tok)).or_insert(next)
}

/// Splits the card on `line`, the text before its first `*` or `;`, at
/// whitespace into `toks`, and returns the token count.
fn split_card<'a>(line: &'a str, toks: &mut [&'a str; 4]) -> usize {
    let card = match line.bytes().position(|b| b == b'*' || b == b';') {
        Some(end) => &line[..end],
        None => line,
    };
    let mut ntok = 0;
    for tok in card.split_whitespace() {
        // Counted past the last slot too, so the arity checks see every
        // token.
        if let Some(slot) = toks.get_mut(ntok) {
            *slot = tok;
        }
        ntok += 1;
    }
    ntok
}

/// An element name's entry: the line of its card, and for an inductor
/// its branch index and inductance, which `K` cards look up.
struct Name {
    line: usize,
    inductor: Option<(usize, f64)>,
}

/// Parses a netlist from SPICE-flavored text.
///
/// # Errors
///
/// Returns a [`ParseNetlistError`] with the line number for any
/// malformed card, unknown element, duplicate name, dangling mutual
/// coupling reference, or out-of-range coupling coefficient.
///
/// # Examples
///
/// ```
/// let text = "\
/// * RC low-pass
/// R1 1 2 1k
/// C1 2 0 1u
/// R2 2 0 10k
/// PORT 1
/// .end";
/// let nl = circuits::parse_netlist(text)?;
/// let sys = nl.build()?;
/// assert_eq!(sys.nstates(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parse_netlist(text: &str) -> Result<Netlist, ParseNetlistError> {
    let mut nl = Netlist::new();
    // Sized from the text, about one card per 24 bytes and one node per
    // two cards, so a typical netlist fills the tables without
    // rehashing; capped so that text which is mostly comments cannot
    // reserve more than a few MiB.
    let cards = (text.len() / 24).min(1 << 16);
    let mut nodes: HashMap<Label<'_>, NodeId> = HashMap::with_capacity(cards / 2);
    let mut names: HashMap<Label<'_>, Name> = HashMap::with_capacity(cards);
    // Mutual cards are resolved after all inductors are read.
    let mut mutuals: Vec<(usize, &str, &str, f64)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let mut toks = [""; 4];
        let ntok = split_card(raw, &mut toks);
        if ntok == 0 {
            continue;
        }
        let card = toks[0];
        if card.eq_ignore_ascii_case(".END") {
            break;
        }
        let port = card.eq_ignore_ascii_case("PORT");
        if port || card.eq_ignore_ascii_case("PROBE") {
            let card = if port { "PORT" } else { "PROBE" };
            if ntok != 2 {
                return Err(err(lineno, format!("{card} expects exactly one node")));
            }
            let node = resolve(&mut nodes, toks[1]);
            if node == 0 {
                return Err(err(lineno, format!("{card} cannot attach to ground")));
            }
            if port {
                nl.port(node);
            } else {
                nl.probe(node);
            }
            continue;
        }
        // Messages name an element upper-cased.
        let upper = || card.to_ascii_uppercase();
        let inductor = match names.entry(Label(card)) {
            Entry::Occupied(first) => {
                let prev = first.get().line;
                let message = format!("duplicate element `{}` (first at line {prev})", upper());
                return Err(err(lineno, message));
            }
            Entry::Vacant(slot) => &mut slot.insert(Name { line: lineno, inductor: None }).inductor,
        };
        match card.as_bytes()[0].to_ascii_uppercase() {
            kind @ (b'R' | b'C' | b'L') => {
                if ntok != 4 {
                    return Err(err(lineno, format!("{} expects: name n+ n- value", upper())));
                }
                let n1 = resolve(&mut nodes, toks[1]);
                let n2 = resolve(&mut nodes, toks[2]);
                let v = parse_value(toks[3], lineno)?;
                if !(v > 0.0 && v.is_finite()) {
                    let message = format!("{}: value must be positive, got {v}", upper());
                    return Err(err(lineno, message));
                }
                if n1 == n2 {
                    let message = format!("{}: element shorts node {n1} to itself", upper());
                    return Err(err(lineno, message));
                }
                match kind {
                    b'R' => {
                        nl.resistor(n1, n2, v);
                    }
                    b'C' => {
                        nl.capacitor(n1, n2, v);
                    }
                    _ => *inductor = Some((nl.inductor(n1, n2, v), v)),
                }
            }
            b'K' => {
                if ntok != 4 {
                    return Err(err(lineno, format!("{} expects: name L1 L2 k", upper())));
                }
                let k = parse_value(toks[3], lineno)?;
                if !(k.abs() < 1.0) {
                    return Err(err(lineno, format!("{}: |k| must be < 1, got {k}", upper())));
                }
                mutuals.push((lineno, toks[1], toks[2], k));
            }
            _ => return Err(err(lineno, format!("unknown element type `{}`", upper()))),
        }
    }
    for (lineno, l1, l2, k) in mutuals {
        let inductor = |name: &str| {
            names.get(&Label(name)).and_then(|n| n.inductor).ok_or_else(|| {
                let name = name.to_ascii_uppercase();
                err(lineno, format!("mutual coupling references unknown inductor `{name}`"))
            })
        };
        let (b1, v1) = inductor(l1)?;
        let (b2, v2) = inductor(l2)?;
        if b1 == b2 {
            return Err(err(lineno, "mutual coupling of an inductor with itself"));
        }
        nl.mutual(b1, b2, k * (v1 * v2).sqrt());
    }
    Ok(nl)
}

/// The parser as it stood before the single-pass rewrite, kept verbatim
/// as the oracle of the differential test below.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::{err, ParseNetlistError};
    use crate::Netlist;

    /// Parses an engineering-notation value like `4.7k`, `10n`, `2meg`.
    fn parse_value(tok: &str, line: usize) -> Result<f64, ParseNetlistError> {
        let lower = tok.to_ascii_lowercase();
        let (mult, digits) = if let Some(stripped) = lower.strip_suffix("meg") {
            (1e6, stripped)
        } else {
            match lower.as_bytes().last() {
                Some(b'f') => (1e-15, &lower[..lower.len() - 1]),
                Some(b'p') => (1e-12, &lower[..lower.len() - 1]),
                Some(b'n') => (1e-9, &lower[..lower.len() - 1]),
                Some(b'u') => (1e-6, &lower[..lower.len() - 1]),
                Some(b'm') => (1e-3, &lower[..lower.len() - 1]),
                Some(b'k') => (1e3, &lower[..lower.len() - 1]),
                Some(b'g') => (1e9, &lower[..lower.len() - 1]),
                Some(b't') => (1e12, &lower[..lower.len() - 1]),
                _ => (1.0, lower.as_str()),
            }
        };
        digits
            .parse::<f64>()
            .map(|v| v * mult)
            .map_err(|_| err(line, format!("invalid value `{tok}`")))
    }

    /// Maps arbitrary node labels to dense 1-based indices (0 = ground).
    #[derive(Default)]
    struct NodeMap {
        ids: BTreeMap<String, usize>,
    }

    impl NodeMap {
        fn resolve(&mut self, tok: &str) -> usize {
            let key = tok.to_ascii_lowercase();
            if key == "0" || key == "gnd" {
                return 0;
            }
            let next = self.ids.len() + 1;
            *self.ids.entry(key).or_insert(next)
        }
    }

    pub fn parse_netlist(text: &str) -> Result<Netlist, ParseNetlistError> {
        let mut nl = Netlist::new();
        // name -> (branch index, inductance) for mutual-coupling cards.
        let mut inductors: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        let mut seen_names: BTreeMap<String, usize> = BTreeMap::new();
        let mut nodes = NodeMap::default();
        // Mutual cards are resolved after all inductors are read.
        let mut pending_mutual: Vec<(usize, String, String, f64)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split(['*', ';']).next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let card = toks[0].to_ascii_uppercase();
            if card == ".END" {
                break;
            }
            if card == "PORT" || card == "PROBE" {
                if toks.len() != 2 {
                    return Err(err(lineno, format!("{card} expects exactly one node")));
                }
                let node = nodes.resolve(toks[1]);
                if node == 0 {
                    return Err(err(lineno, format!("{card} cannot attach to ground")));
                }
                if card == "PORT" {
                    nl.port(node);
                } else {
                    nl.probe(node);
                }
                continue;
            }
            let Some(kind) = card.chars().next() else {
                return Err(err(lineno, "empty element card"));
            };
            if let Some(prev) = seen_names.insert(card.clone(), lineno) {
                return Err(err(lineno, format!("duplicate element `{card}` (first at line {prev})")));
            }
            match kind {
                'R' | 'C' | 'L' => {
                    if toks.len() != 4 {
                        return Err(err(lineno, format!("{card} expects: name n+ n- value")));
                    }
                    let n1 = nodes.resolve(toks[1]);
                    let n2 = nodes.resolve(toks[2]);
                    let v = parse_value(toks[3], lineno)?;
                    if !(v > 0.0 && v.is_finite()) {
                        return Err(err(lineno, format!("{card}: value must be positive, got {v}")));
                    }
                    if n1 == n2 {
                        return Err(err(lineno, format!("{card}: element shorts node {n1} to itself")));
                    }
                    match kind {
                        'R' => {
                            nl.resistor(n1, n2, v);
                        }
                        'C' => {
                            nl.capacitor(n1, n2, v);
                        }
                        'L' => {
                            let branch = nl.inductor(n1, n2, v);
                            inductors.insert(card.clone(), (branch, v));
                        }
                        _ => unreachable!(),
                    }
                }
                'K' => {
                    if toks.len() != 4 {
                        return Err(err(lineno, format!("{card} expects: name L1 L2 k")));
                    }
                    let k = parse_value(toks[3], lineno)?;
                    if !(k.abs() < 1.0) {
                        return Err(err(lineno, format!("{card}: |k| must be < 1, got {k}")));
                    }
                    pending_mutual.push((
                        lineno,
                        toks[1].to_ascii_uppercase(),
                        toks[2].to_ascii_uppercase(),
                        k,
                    ));
                }
                _ => return Err(err(lineno, format!("unknown element type `{card}`"))),
            }
        }
        for (lineno, l1, l2, k) in pending_mutual {
            let (b1, v1) = *inductors
                .get(&l1)
                .ok_or_else(|| err(lineno, format!("mutual coupling references unknown inductor `{l1}`")))?;
            let (b2, v2) = *inductors
                .get(&l2)
                .ok_or_else(|| err(lineno, format!("mutual coupling references unknown inductor `{l2}`")))?;
            if b1 == b2 {
                return Err(err(lineno, "mutual coupling of an inductor with itself"));
            }
            nl.mutual(b1, b2, k * (v1 * v2).sqrt());
        }
        Ok(nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numkit::{c64, SplitMix64};

    #[test]
    fn parses_rc_lowpass() {
        let nl = parse_netlist("R1 1 2 1k\nC1 2 0 1u\nR2 2 0 1meg\nPORT 1\n").unwrap();
        let sys = nl.build().unwrap();
        assert_eq!(sys.nstates(), 2);
        let z0 = sys.transfer_function(c64::ZERO).unwrap()[(0, 0)];
        assert!((z0.re - 1_001_000.0).abs() < 1.0, "got {}", z0.re);
    }

    #[test]
    fn engineering_suffixes() {
        assert_eq!(parse_value("1k", 1).unwrap(), 1e3);
        assert_eq!(parse_value("2meg", 1).unwrap(), 2e6);
        assert_eq!(parse_value("2MEG", 1).unwrap(), 2e6);
        assert!((parse_value("4.7n", 1).unwrap() - 4.7e-9).abs() < 1e-22);
        assert!((parse_value("10f", 1).unwrap() - 1e-14).abs() < 1e-28);
        assert_eq!(parse_value("3", 1).unwrap(), 3.0);
        assert_eq!(parse_value("1m", 1).unwrap(), 1e-3);
        assert_eq!(parse_value("1M", 1).unwrap(), 1e-3);
        assert_eq!(parse_value("1E3", 1).unwrap(), 1e3);
        assert!(parse_value("1x", 1).is_err());
        assert!(parse_value("meg", 1).is_err());
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let nl = parse_netlist(
            "* header\n\nR1 1 0 50 ; termination\n; full comment\nC1 1 0 1p\nPORT 1\n.end\nR9 9 0 bogus-after-end",
        )
        .unwrap();
        assert_eq!(nl.build().unwrap().nstates(), 1);
    }

    #[test]
    fn mutual_coupling_resolved_by_name() {
        let text = "L1 1 2 1n\nL2 3 4 4n\nK1 L1 L2 0.5\nR1 2 0 1\nR2 4 0 1\nC1 1 0 1p\nC2 3 0 1p\nPORT 1\nPORT 3\n";
        let sys = parse_netlist(text).unwrap().build().unwrap();
        // M = k·√(L1·L2) = 0.5·2n: verify ac coupling exists.
        let z = sys.transfer_function(c64::new(0.0, 1e9)).unwrap();
        assert!(z[(0, 1)].abs() > 0.0);
    }

    #[test]
    fn error_reporting_with_line_numbers() {
        let e = parse_netlist("R1 1 2 1k\nXQ 1 2 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("unknown element"));

        let e = parse_netlist("R1 1 2 1k\nR1 2 0 1k\n").unwrap_err();
        assert!(e.message.contains("duplicate"));

        let e = parse_netlist("r1 1 2 1k\nR1 2 0 1k\n").unwrap_err();
        assert_eq!(e.message, "duplicate element `R1` (first at line 1)");

        let e = parse_netlist("K1 L1 L2 0.5\n").unwrap_err();
        assert!(e.message.contains("unknown inductor"));

        let e = parse_netlist("R1 1 1 5\n").unwrap_err();
        assert!(e.message.contains("shorts"));

        let e = parse_netlist("PORT 0\n").unwrap_err();
        assert!(e.message.contains("ground"));

        let e = parse_netlist("C1 1 0 -2p\n").unwrap_err();
        assert!(e.message.contains("positive"));
    }

    #[test]
    fn repeated_parses_stamp_identically() {
        // Stamp order decides LU pivot tie-breaks downstream, so two
        // parses of the same netlist must produce byte-identical MNA
        // structure — including the mutual-coupling resolution path.
        // The parser's hash tables use a fresh random key on every
        // call; this locks in that they are only looked up, never
        // iterated.
        let text = "\
L2 3 4 4n\nL1 1 2 1n\nK1 L1 L2 0.5\nR1 2 0 1\nR2 4 0 1k\nC1 1 0 1p\nC2 3 0 2p\nPORT 1\nPORT 3\nPROBE 4\n";
        let s1 = parse_netlist(text).unwrap().build().unwrap();
        let s2 = parse_netlist(text).unwrap().build().unwrap();
        for (m1, m2) in [(&s1.e, &s2.e), (&s1.a, &s2.a)] {
            let t1: Vec<(usize, usize, f64)> = m1.iter().collect();
            let t2: Vec<(usize, usize, f64)> = m2.iter().collect();
            assert_eq!(t1.len(), t2.len());
            for (a, b) in t1.iter().zip(&t2) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1, b.1);
                assert_eq!(a.2.to_bits(), b.2.to_bits());
            }
        }
        assert_eq!(s1.b, s2.b);
        assert_eq!(s1.c, s2.c);
    }

    #[test]
    fn gnd_alias() {
        let nl = parse_netlist("R1 1 GND 50\nC1 1 gnd 1p\nPORT 1\n").unwrap();
        assert_eq!(nl.build().unwrap().nstates(), 1);
    }

    fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
        from[rng.next_usize(from.len())]
    }

    /// `s` with each ASCII letter's case flipped at random.
    fn recase(rng: &mut SplitMix64, s: &str) -> String {
        s.chars()
            .map(|c| match rng.next_usize(2) {
                0 => c.to_ascii_uppercase(),
                _ => c.to_ascii_lowercase(),
            })
            .collect()
    }

    /// One of `from`, its letters recased at random.
    fn pick_recased(rng: &mut SplitMix64, from: &[&str]) -> String {
        let s = pick(rng, from);
        recase(rng, s)
    }

    /// A fresh element name, `kind` and `index`, now and then with a
    /// tail that takes it past 32 bytes.
    fn element_name(rng: &mut SplitMix64, kind: &str, index: usize) -> String {
        let tail = if rng.next_usize(4) == 0 { "_Long_Element_Name_Past_32_Bytes" } else { "" };
        format!("{kind}{index}{tail}")
    }

    /// One of `from` followed by one of `suffixes`.
    fn pick_value(rng: &mut SplitMix64, from: &[&str], suffixes: &[&str]) -> String {
        let digits = pick(rng, from);
        format!("{digits}{}", pick(rng, suffixes))
    }

    /// Node labels; the long one spans two of `Label::hash`'s chunks.
    const NODES: &[&str] = &[
        "1", "2", "3", "4", "5", "n1", "out", "a_b", "00", "é1", "Long_Node_Label_Spanning_Two_Chunks",
    ];
    const GROUNDS: &[&str] = &["0", "gnd", "GND", "Gnd"];

    /// Two distinct node labels, the second one ground half the time.
    fn node_pair(rng: &mut SplitMix64) -> (String, String) {
        let i = rng.next_usize(NODES.len());
        let j = (i + 1 + rng.next_usize(NODES.len() - 1)) % NODES.len();
        let second = if rng.next_usize(2) == 0 { NODES[j] } else { pick(rng, GROUNDS) };
        (recase(rng, NODES[i]), recase(rng, second))
    }

    /// A random netlist of up to a dozen cards. `noise` is the chance a
    /// card is broken on purpose: a bad value, a wrong token count, a
    /// duplicate name, a short, a grounded port, a dangling or
    /// self-referencing coupling, an unknown card, an early `.end`.
    fn random_netlist(rng: &mut SplitMix64, noise: f64) -> String {
        const MANTISSAS: &[&str] = &["1", "2.5", "0.1", ".5", "1e3", "1E-3", "4.7", "+3", "10"];
        const BAD_MANTISSAS: &[&str] = &[
            "0", "-2", "abc", "", "1e", "Infinity", "INFINITY", "inf", "nan", "NaN", "1.5e400",
            "1e-400", "1.2.3",
        ];
        const SUFFIXES: &[&str] = &[
            "", "", "", "f", "F", "p", "P", "n", "N", "u", "U", "m", "M", "k", "K", "meg", "MEG",
            "Meg", "g", "G", "t", "T",
        ];
        const BAD_SUFFIXES: &[&str] = &["x", "e", "megg", "mil", "é"];
        const COUPLINGS: &[&str] = &["0.5", "-0.3", "0.99", "5m", "0"];
        const BAD_COUPLINGS: &[&str] = &["1", "-1", "1.5", "x", "2meg"];
        const SPACES: &[&str] =
            &[" ", " ", " ", "  ", "\t", " \t ", "\u{b}", "\u{c}", "\u{a0}", "\u{3000}"];
        const ENDS: &[&str] = &["\n", "\n", "\n", "\r\n", "\r"];
        const COMMENTS: &[&str] = &["* note", "; note", "*", ";;", "* R9 1 2 3"];

        let mut names: Vec<String> = Vec::new();
        let mut inductors: Vec<String> = Vec::new();
        let mut text = String::new();
        let lines = 1 + rng.next_usize(12);
        let port_at = rng.next_usize(lines);
        for li in 0..lines {
            let broken = rng.next_f64() < noise;
            let mut toks: Vec<String> = Vec::new();
            match rng.next_usize(12) {
                0 => {}
                1 => toks.push(pick(rng, COMMENTS).to_string()),
                2 if broken => match rng.next_usize(3) {
                    0 => toks.push(pick_recased(rng, &[".end", ".ends", "end"])),
                    1 => toks.extend(["XQ", "1", "2", "3"].map(String::from)),
                    _ => {
                        toks.push(pick_recased(rng, &["port", "probe"]));
                        toks.push(pick_recased(rng, GROUNDS));
                    }
                },
                2 => toks.extend([pick_recased(rng, &["port", "probe"]), pick_recased(rng, NODES)]),
                3 | 4 if broken || inductors.len() > 1 => {
                    let name = element_name(rng, "K", names.len());
                    toks.push(recase(rng, &name));
                    let (i, j) = match inductors.len() {
                        0 | 1 => (None, None),
                        n => {
                            let i = rng.next_usize(n);
                            (Some(i), Some((i + 1 + rng.next_usize(n - 1)) % n))
                        }
                    };
                    for at in [i, j] {
                        let target = at.map_or("L9", |at| inductors[at].as_str());
                        toks.push(recase(rng, target));
                    }
                    toks.push(pick(rng, COUPLINGS).to_string());
                    if broken {
                        match rng.next_usize(4) {
                            0 => toks[2] = pick(rng, &["L9", "R0", "l7"]).to_string(),
                            1 => toks[2] = toks[1].to_ascii_lowercase(),
                            2 => toks[3] = pick(rng, BAD_COUPLINGS).to_string(),
                            _ => drop(toks.swap_remove(1 + rng.next_usize(3))),
                        }
                    }
                    names.push(name);
                }
                _ => {
                    let kind = pick(rng, &["R", "C", "L"]);
                    let mut name = element_name(rng, kind, names.len());
                    let (n1, mut n2) = node_pair(rng);
                    let mut value = pick_value(rng, MANTISSAS, SUFFIXES);
                    let mut extra = None;
                    if broken {
                        match rng.next_usize(5) {
                            0 => value = pick_value(rng, BAD_MANTISSAS, SUFFIXES),
                            1 => value = pick_value(rng, MANTISSAS, BAD_SUFFIXES),
                            2 if !names.is_empty() => {
                                name = names[rng.next_usize(names.len())].clone();
                            }
                            3 => n2 = recase(rng, &n1),
                            _ => extra = Some("7".to_string()),
                        }
                    }
                    toks.push(recase(rng, &name));
                    toks.extend([n1, n2, value]);
                    toks.extend(extra);
                    if name.starts_with('L') {
                        inductors.push(name.clone());
                    }
                    names.push(name);
                }
            }
            if rng.next_usize(3) == 0 {
                text.push_str(pick(rng, SPACES));
            }
            for (i, tok) in toks.iter().enumerate() {
                if i > 0 {
                    text.push_str(pick(rng, SPACES));
                }
                text.push_str(tok);
            }
            if rng.next_usize(8) == 0 {
                text.push_str(pick(rng, SPACES));
                text.push_str(pick(rng, COMMENTS));
            }
            text.push_str(pick(rng, ENDS));
            if li == port_at {
                let (port, space) = (recase(rng, "port"), pick(rng, SPACES));
                text.push_str(&format!("{port}{space}{}\n", pick_recased(rng, NODES)));
            }
        }
        text
    }

    /// Differential test against the pre-rewrite parser: on every input
    /// both succeed with the same netlist (node numbering, element, port
    /// and probe order, hence the same structural and pencil hashes), or
    /// both fail at the same line with the same message.
    #[test]
    fn single_pass_parser_matches_the_reference() {
        let mut rng = SplitMix64::new(0x5eed_2026);
        let (mut parsed, mut coupled, mut probed) = (0, 0, 0);
        let mut messages: Vec<String> = Vec::new();
        let meshes = [(8, 8, vec![0, 63]), (5, 12, vec![3, 17, 40, 59])]
            .map(|(rows, cols, ports)| crate::rc_mesh_netlist(rows, cols, &ports, 1.0, 1e-12, 50.0));
        for case in 0..20_000 {
            let noise = [0.0, 0.02, 0.1, 0.4][case % 4];
            let text = match meshes.get(case) {
                Some(mesh) => mesh.clone(),
                None => random_netlist(&mut rng, noise),
            };
            match (parse_netlist(&text), reference::parse_netlist(&text)) {
                (Ok(new), Ok(old)) => {
                    let shown = format!("{new:?}");
                    assert_eq!(shown, format!("{old:?}"), "{text:?}");
                    assert_eq!(new.structural_hash(), old.structural_hash(), "{text:?}");
                    assert_eq!(new.nports(), old.nports(), "{text:?}");
                    match (new.build(), old.build()) {
                        (Ok(a), Ok(b)) => assert_eq!(a.pencil_hash(), b.pencil_hash(), "{text:?}"),
                        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{text:?}"),
                        (a, b) => panic!("{text:?}: build {:?} vs {:?}", a.is_ok(), b.is_ok()),
                    }
                    parsed += 1;
                    coupled += usize::from(shown.contains("Mutual"));
                    probed += usize::from(!shown.contains("probes: []"));
                }
                (Err(new), Err(old)) => {
                    assert_eq!(new, old, "{text:?}");
                    messages.push(new.message);
                }
                (new, old) => panic!("{text:?}: new {new:?}, reference {old:?}"),
            }
        }
        assert!(parsed > 5000 && coupled > 300 && probed > 600, "{parsed} {coupled} {probed}");
        for expected in [
            "duplicate element",
            "unknown element type",
            "invalid value",
            "value must be positive",
            "shorts node",
            "expects exactly one node",
            "cannot attach to ground",
            "expects: name n+ n- value",
            "expects: name L1 L2 k",
            "|k| must be < 1",
            "unknown inductor",
            "with itself",
        ] {
            let seen = messages.iter().any(|m| m.contains(expected));
            assert!(seen, "no `{expected}` error in the corpus");
        }
    }
}
