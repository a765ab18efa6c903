//! Graphviz DOT export of a circuit's Algorithm 1 graph, for inspecting
//! circuits and detected constraints visually.

use std::fmt::Write as _;

use ancstr_netlist::PortType;

use crate::build::{BuildOptions, PinStream};

/// Edge colour per port type (graphviz colour names).
pub fn port_color(port: PortType) -> &'static str {
    match port {
        PortType::Gate => "blue",
        PortType::Drain => "red",
        PortType::Source => "darkgreen",
        PortType::Passive => "gray40",
    }
}

/// Render the graph of `stream` as DOT, in one pass over its clique
/// pairs. Each pair `((u, τ_u), (v, τ_v))` is drawn as one line without
/// arrowheads (`dir=none`) for its two typed edges, coloured and
/// labelled by `τ_v`. `label` maps each vertex to its display name
/// (typically the device path); `highlight` marks vertices drawn with a
/// filled style (e.g. members of detected constraints).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ancstr_graph::{dot::to_dot, BuildOptions, PinStream};
/// use ancstr_netlist::{flat::FlatCircuit, parse::parse_spice};
///
/// let nl = parse_spice(".subckt r a b\nR1 a b 1k\nR2 b a 2k\n.ends\n")?;
/// let flat = FlatCircuit::elaborate(&nl)?;
/// let stream = PinStream::from_device_range(&flat, 0..flat.devices().len());
/// let text = to_dot(&stream, &BuildOptions::default(), |v| format!("R{}", v + 1), |_| false);
/// assert!(text.starts_with("digraph \"circuit\""));
/// assert!(text.contains("R2"));
/// assert!(text.contains("dir=none"));
/// # Ok(())
/// # }
/// ```
pub fn to_dot(
    stream: &PinStream,
    options: &BuildOptions,
    label: impl Fn(usize) -> String,
    highlight: impl Fn(usize) -> bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"circuit\" {{");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    for v in 0..stream.vertex_count() {
        let style = if highlight(v) {
            ", style=filled, fillcolor=gold"
        } else {
            ""
        };
        let _ = writeln!(out, "  v{v} [label=\"{}\"{style}];", escape(&label(v)));
    }
    stream.for_each_clique_pair(options, |(u, _), (v, port)| {
        let _ = writeln!(
            out,
            "  v{u} -> v{v} [color={}, dir=none, tooltip=\"{port}\"];",
            port_color(port)
        );
    });
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::flat::FlatCircuit;
    use ancstr_netlist::parse::parse_spice;

    /// M1 and M2 share a drain net, M2 and C1 the net `b`.
    fn sample() -> PinStream {
        let nl = parse_spice(
            "\
.subckt s a b g vss
M1 a g vss vss nch w=1u l=0.1u
M2 a b vss vss nch w=1u l=0.1u
C1 b vss 1f
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        PinStream::from_device_range(&flat, 0..flat.devices().len())
    }

    #[test]
    fn renders_nodes_and_edges() {
        let text = to_dot(
            &sample(),
            &BuildOptions::default(),
            |v| format!("dev{v}"),
            |v| v == 2,
        );
        assert!(text.starts_with("digraph"));
        assert!(text.contains("dev0"));
        assert!(text.contains("v2 [label=\"dev2\", style=filled, fillcolor=gold];"));
        assert!(text.contains("v0 -> v1 [color=red, dir=none, tooltip=\"drain\"];"));
        assert!(text.ends_with("}\n"));
    }

    /// Each clique pair is one line for its two reciprocal edges.
    #[test]
    fn collapse_merges_reciprocal_pairs() {
        let stream = sample();
        let options = BuildOptions::default();
        let text = to_dot(&stream, &options, |v| v.to_string(), |_| false);
        let mut pairs = 0;
        stream.for_each_clique_pair(&options, |_, _| pairs += 1);
        assert!(pairs > 0);
        assert_eq!(text.matches(" -> ").count(), pairs);
        assert_eq!(text.matches("dir=none").count(), pairs);
        assert!(!text.contains("dir=forward"));
    }

    #[test]
    fn labels_are_escaped() {
        let text = to_dot(
            &sample(),
            &BuildOptions::default(),
            |_| "a\"b\\c".to_owned(),
            |_| false,
        );
        assert!(text.contains("a\\\"b\\\\c"));
    }
}
