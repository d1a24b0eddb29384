//! Circuit description and builder.

use crate::error::SimError;
use crate::waveform::Waveform;

/// A circuit node. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of an element within its family (junction, inductor, …),
/// returned by the `add_*` methods and used to query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

impl ElementId {
    /// Raw index within the element family.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Physical parameters of one Josephson junction (RCSJ model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JjParams {
    /// Critical current in amperes.
    pub ic: f64,
    /// Shunt resistance in ohms.
    pub r: f64,
    /// Junction capacitance in farads.
    pub c: f64,
}

impl JjParams {
    /// A critically damped (βc ≈ 1) junction with the given critical
    /// current, representative of the AIST 1.0 µm niobium process.
    ///
    /// The shunt is chosen as `R = sqrt(Φ₀ / (2π·I_c·C))` with
    /// C = 0.5 pF · (I_c / 0.1 mA).
    pub fn critically_damped(ic: f64) -> Self {
        let c = 0.5e-12 * (ic / 1.0e-4);
        let r = (crate::PHI0 / (2.0 * std::f64::consts::PI * ic * c)).sqrt();
        JjParams { ic, r, c }
    }

    /// Stewart–McCumber damping parameter βc = 2π·I_c·R²·C / Φ₀.
    pub fn beta_c(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.ic * self.r * self.r * self.c / crate::PHI0
    }
}

impl Default for JjParams {
    fn default() -> Self {
        Self::critically_damped(1.0e-4)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Jj {
    pub a: usize,
    pub b: usize,
    pub p: JjParams,
}

#[derive(Debug, Clone)]
pub(crate) struct TwoTerminal {
    pub a: usize,
    pub b: usize,
    pub value: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Source {
    /// Current flows out of this source into `into` (from ground).
    pub into: usize,
    pub from: usize,
    pub waveform: Waveform,
}

/// A flat netlist of junctions, inductors, resistors, capacitors and
/// current sources. Build with the `add_*` methods, then hand to
/// [`crate::Solver`].
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    pub(crate) node_count: usize, // includes ground
    pub(crate) jjs: Vec<Jj>,
    pub(crate) inductors: Vec<TwoTerminal>,
    pub(crate) resistors: Vec<TwoTerminal>,
    pub(crate) capacitors: Vec<TwoTerminal>,
    pub(crate) sources: Vec<Source>,
}

impl Circuit {
    /// An empty circuit containing only the ground node.
    pub fn new() -> Self {
        Circuit {
            node_count: 1,
            ..Default::default()
        }
    }

    /// Create a fresh node and return its id.
    pub fn node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        id
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of Josephson junctions.
    pub fn jj_count(&self) -> usize {
        self.jjs.len()
    }

    fn check_node(&self, n: NodeId) -> Result<(), SimError> {
        if n.0 >= self.node_count {
            Err(SimError::UnknownNode(n.0))
        } else {
            Ok(())
        }
    }

    fn check_positive(
        element: &'static str,
        field: &'static str,
        value: f64,
    ) -> Result<(), SimError> {
        if !value.is_finite() || value <= 0.0 {
            Err(SimError::InvalidParameter {
                element,
                field,
                value,
            })
        } else {
            Ok(())
        }
    }

    /// Add a Josephson junction between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes or non-positive `ic`/`r`/`c`.
    pub fn add_jj(&mut self, a: NodeId, b: NodeId, p: JjParams) -> Result<ElementId, SimError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_positive("jj", "ic", p.ic)?;
        Self::check_positive("jj", "r", p.r)?;
        Self::check_positive("jj", "c", p.c)?;
        self.jjs.push(Jj { a: a.0, b: b.0, p });
        Ok(ElementId(self.jjs.len() - 1))
    }

    /// Add an inductor of `l` henries between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes or non-positive inductance.
    pub fn add_inductor(&mut self, a: NodeId, b: NodeId, l: f64) -> Result<ElementId, SimError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_positive("inductor", "l", l)?;
        self.inductors.push(TwoTerminal {
            a: a.0,
            b: b.0,
            value: l,
        });
        Ok(ElementId(self.inductors.len() - 1))
    }

    /// Add a resistor of `r` ohms between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes or non-positive resistance.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, r: f64) -> Result<ElementId, SimError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_positive("resistor", "r", r)?;
        self.resistors.push(TwoTerminal {
            a: a.0,
            b: b.0,
            value: r,
        });
        Ok(ElementId(self.resistors.len() - 1))
    }

    /// Add a capacitor of `c` farads between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes or non-positive capacitance.
    pub fn add_capacitor(&mut self, a: NodeId, b: NodeId, c: f64) -> Result<ElementId, SimError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_positive("capacitor", "c", c)?;
        self.capacitors.push(TwoTerminal {
            a: a.0,
            b: b.0,
            value: c,
        });
        Ok(ElementId(self.capacitors.len() - 1))
    }

    /// Add a current source driving `waveform` amperes into node
    /// `into` (returning through ground).
    ///
    /// # Errors
    ///
    /// Fails on an unknown node.
    pub fn add_source(&mut self, into: NodeId, waveform: Waveform) -> Result<ElementId, SimError> {
        self.check_node(into)?;
        self.sources.push(Source {
            into: into.0,
            from: 0,
            waveform,
        });
        Ok(ElementId(self.sources.len() - 1))
    }

    /// Add a DC bias current into a node (convenience; soft-started as
    /// a 20 ps ramp so the storage loops settle without spurious
    /// switching).
    ///
    /// # Errors
    ///
    /// Fails on an unknown node.
    pub fn add_bias(&mut self, into: NodeId, amperes: f64) -> Result<ElementId, SimError> {
        self.add_source(
            into,
            Waveform::Ramp {
                t0: 0.0,
                rise: 20.0e-12,
                amplitude: amperes,
            },
        )
    }

    /// Validate overall shape before solving.
    ///
    /// # Errors
    ///
    /// Fails if the circuit has no non-ground nodes.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.node_count <= 1 {
            return Err(SimError::EmptyCircuit);
        }
        Ok(())
    }

    /// Bit-exact fingerprint of the netlist: the node count, then each
    /// element family's length followed by every element's terminals
    /// and value bits (`JjParams` for junctions), then every source's
    /// terminals and waveform parameters. Two circuits with equal
    /// fingerprints solve bit-identically under the same options and
    /// horizon.
    pub(crate) fn fingerprint(&self) -> Vec<u64> {
        let mut fp = vec![self.node_count as u64, self.jjs.len() as u64];
        for j in &self.jjs {
            fp.extend([
                j.a as u64,
                j.b as u64,
                j.p.ic.to_bits(),
                j.p.r.to_bits(),
                j.p.c.to_bits(),
            ]);
        }
        for family in [&self.inductors, &self.resistors, &self.capacitors] {
            fp.push(family.len() as u64);
            for e in family {
                fp.extend([e.a as u64, e.b as u64, e.value.to_bits()]);
            }
        }
        fp.push(self.sources.len() as u64);
        for s in &self.sources {
            fp.extend([s.into as u64, s.from as u64]);
            s.waveform.fingerprint_into(&mut fp);
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_circuit() {
        let mut c = Circuit::new();
        let n1 = c.node();
        let n2 = c.node();
        c.add_jj(n1, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_inductor(n1, n2, 10e-12).unwrap();
        c.add_bias(n1, 0.7e-4).unwrap();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.jj_count(), 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn unknown_node_rejected() {
        let mut c = Circuit::new();
        let n1 = c.node();
        let bogus = NodeId(42);
        assert_eq!(
            c.add_inductor(n1, bogus, 1e-12).unwrap_err(),
            SimError::UnknownNode(42)
        );
    }

    #[test]
    fn nonpositive_values_rejected() {
        let mut c = Circuit::new();
        let n1 = c.node();
        assert!(c.add_resistor(n1, NodeId::GROUND, 0.0).is_err());
        assert!(c.add_capacitor(n1, NodeId::GROUND, -1e-12).is_err());
        assert!(c
            .add_jj(
                n1,
                NodeId::GROUND,
                JjParams {
                    ic: f64::NAN,
                    r: 1.0,
                    c: 1e-12
                }
            )
            .is_err());
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new();
        assert_eq!(c.validate().unwrap_err(), SimError::EmptyCircuit);
    }

    #[test]
    fn critically_damped_has_beta_c_one() {
        let p = JjParams::critically_damped(1.0e-4);
        assert!((p.beta_c() - 1.0).abs() < 1e-9, "beta_c = {}", p.beta_c());
    }
}
