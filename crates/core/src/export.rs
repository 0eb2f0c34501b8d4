//! Constraint file export/import in the MAGICAL/ALIGN convention:
//! one `sym` line per pair (or `sym_group` per merged group), addressed
//! by hierarchical path relative to the constraint's `T_c`.
//!
//! ```text
//! # hierarchy: adc1
//! sym        system Xdac1a Xdac1b
//! sym_group  device Ca0 Ca1 Cb0 Cb1
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use ancstr_netlist::flat::{FlatCircuit, HierNodeId};
use ancstr_netlist::{ConstraintSet, SymmetryConstraint, SymmetryKind};

use crate::groups::{merged_groups_sorted, SymmetryGroup};

/// Error returned when parsing a constraint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConstraintError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseConstraintError {}

/// Serialize a detection's constraints, grouped per hierarchy and merged
/// into symmetry groups.
pub fn write_constraints(flat: &FlatCircuit, constraints: &ConstraintSet) -> String {
    let groups = merged_groups_sorted(flat, constraints);
    let mut out = String::new();
    let mut current: Option<HierNodeId> = None;
    for g in &groups {
        if current != Some(g.hierarchy) {
            let _ = writeln!(out, "# hierarchy: {}", flat.node(g.hierarchy).path);
            current = Some(g.hierarchy);
        }
        write_group(flat, g, &mut out);
    }
    out
}

fn write_group(flat: &FlatCircuit, g: &SymmetryGroup, out: &mut String) {
    let local = |m: HierNodeId| flat.node(m).name.clone();
    if g.members.len() == 2 {
        let _ = writeln!(
            out,
            "sym        {} {} {}",
            g.kind,
            local(g.members[0]),
            local(g.members[1])
        );
    } else {
        let _ = write!(out, "sym_group  {}", g.kind);
        for &m in &g.members {
            let _ = write!(out, " {}", local(m));
        }
        out.push('\n');
    }
}

/// Parse a constraint file back against a circuit, resolving local
/// names under each `# hierarchy:` header.
///
/// # Errors
///
/// Returns [`ParseConstraintError`] on unknown hierarchies, unknown
/// member names, bad levels, or malformed lines.
pub fn read_constraints(
    flat: &FlatCircuit,
    text: &str,
) -> Result<ConstraintSet, ParseConstraintError> {
    // One path index per call: `FlatCircuit::node_by_path` scans every
    // node, and a corpus file names hundreds of thousands of members.
    // The first node of a path wins, as in `node_by_path`.
    let mut by_path: HashMap<&str, HierNodeId> = HashMap::with_capacity(flat.nodes().len());
    for node in flat.nodes() {
        by_path.entry(node.path.as_str()).or_insert(node.id);
    }
    let mut set = ConstraintSet::new();
    let mut hierarchy: Option<HierNodeId> = None;
    let mut path = String::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# hierarchy:") {
            let path = rest.trim();
            let node = by_path.get(path).ok_or_else(|| ParseConstraintError {
                line: lineno,
                reason: format!("unknown hierarchy `{path}`"),
            })?;
            hierarchy = Some(*node);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let keyword = tok.next().expect("non-empty line");
        if keyword != "sym" && keyword != "sym_group" {
            return Err(ParseConstraintError {
                line: lineno,
                reason: format!("unknown keyword `{keyword}`"),
            });
        }
        let Some(tc) = hierarchy else {
            return Err(ParseConstraintError {
                line: lineno,
                reason: "constraint before any `# hierarchy:` header".to_owned(),
            });
        };
        let kind = match tok.next() {
            Some("system") => SymmetryKind::System,
            Some("device") => SymmetryKind::Device,
            other => {
                return Err(ParseConstraintError {
                    line: lineno,
                    reason: format!("bad level `{other:?}`"),
                })
            }
        };
        let tc_path = &flat.node(tc).path;
        let mut members = Vec::new();
        for name in tok {
            path.clear();
            let _ = write!(path, "{tc_path}/{name}");
            let node = by_path.get(path.as_str()).ok_or_else(|| ParseConstraintError {
                line: lineno,
                reason: format!("unknown member `{name}` under `{tc_path}`"),
            })?;
            members.push(*node);
        }
        if members.len() < 2 {
            return Err(ParseConstraintError {
                line: lineno,
                reason: "a constraint needs at least two members".to_owned(),
            });
        }
        for a in 0..members.len() {
            for b in (a + 1)..members.len() {
                set.insert(SymmetryConstraint::new(tc, members[a], members[b], kind));
            }
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;

    fn fixture() -> FlatCircuit {
        let nl = parse_spice(
            "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
X2 m y vdd vss inv
C1 a vss 10f
C2 y vss 10f
C3 m vss 10f
*.symmetry X1 X2
*.symmetry C1 C2
.ends
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    #[test]
    fn round_trip_preserves_constraints() {
        let flat = fixture();
        let text = write_constraints(&flat, flat.ground_truth());
        let back = read_constraints(&flat, &text).unwrap();
        assert_eq!(back.len(), flat.ground_truth().len());
        for c in flat.ground_truth().iter() {
            assert!(back.contains_key(c.pair));
        }
    }

    #[test]
    fn groups_expand_to_all_pairs() {
        let flat = fixture();
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let x2 = flat.node_by_path("top/X2").unwrap().id;
        let root = flat.root().id;
        let c1 = flat.node_by_path("top/C1").unwrap().id;
        let c2 = flat.node_by_path("top/C2").unwrap().id;
        let c3 = flat.node_by_path("top/C3").unwrap().id;
        let set: ConstraintSet = [
            SymmetryConstraint::new(root, x1, x2, SymmetryKind::System),
            SymmetryConstraint::new(root, c1, c2, SymmetryKind::System),
            SymmetryConstraint::new(root, c2, c3, SymmetryKind::System),
        ]
        .into_iter()
        .collect();
        let text = write_constraints(&flat, &set);
        assert!(text.contains("sym_group"), "caps merge to a group:\n{text}");
        let back = read_constraints(&flat, &text).unwrap();
        // The 3-cap group expands to all C(3,2) = 3 pairs.
        assert!(back.contains_pair(c1, c3));
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let flat = fixture();
        let err = read_constraints(&flat, "# hierarchy: nonexistent\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = read_constraints(&flat, "sym device Mp Mn\n").unwrap_err();
        assert!(err.reason.contains("header"));
        let err =
            read_constraints(&flat, "# hierarchy: top\nsym device X1 GHOST\n").unwrap_err();
        assert!(err.reason.contains("GHOST"));
        let err = read_constraints(&flat, "# hierarchy: top\nfrob device X1 X2\n").unwrap_err();
        assert!(err.reason.contains("frob"));
        let err = read_constraints(&flat, "# hierarchy: top\nsym wrong X1 X2\n").unwrap_err();
        assert!(err.reason.contains("level"));
        let err = read_constraints(&flat, "# hierarchy: top\nsym device X1\n").unwrap_err();
        assert!(err.reason.contains("two members"));
    }

    #[test]
    fn unknown_names_report_exact_messages() {
        let flat = fixture();
        let err = read_constraints(&flat, "sym device X1 X2\n# hierarchy: top/X9\n").unwrap_err();
        assert_eq!(err.to_string(), "line 1: constraint before any `# hierarchy:` header");
        let err = read_constraints(&flat, "# hierarchy: top/X9\n").unwrap_err();
        assert_eq!(err.to_string(), "line 1: unknown hierarchy `top/X9`");
        let err = read_constraints(&flat, "# hierarchy: top\nsym system X1 X2\n\nsym device C1 GHOST\n")
            .unwrap_err();
        assert_eq!(err.to_string(), "line 4: unknown member `GHOST` under `top`");
        let err =
            read_constraints(&flat, "# hierarchy: top/X1\nsym device Mp Mn X2\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: unknown member `X2` under `top/X1`");
        let set = read_constraints(&flat, "# hierarchy: top/X1\nsym device Mp Mn\n").unwrap();
        let mp = flat.node_by_path("top/X1/Mp").unwrap().id;
        let mn = flat.node_by_path("top/X1/Mn").unwrap().id;
        assert!(set.contains_pair(mp, mn));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let flat = fixture();
        let set = read_constraints(
            &flat,
            "\n# a comment\n# hierarchy: top\n\nsym system X1 X2\n",
        )
        .unwrap();
        assert_eq!(set.len(), 1);
    }
}
