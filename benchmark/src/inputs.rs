//! Seeded inputs: the program under test only ever sees circuits and
//! parameter vectors generated here from `--seed`.

use vqc_apps::graphs::Graph;
use vqc_apps::molecules::Molecule;
use vqc_apps::{qaoa, uccsd};
use vqc_circuit::Circuit;
use vqc_core::Strategy;

/// SplitMix64: small, seedable, and the same on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose, so adding a draw to one
    /// workload does not shift the inputs of another.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[low, high)`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + (high - low) * unit
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// One compile request: a circuit at a parameter binding under a strategy.
#[derive(Debug, Clone)]
pub struct Op {
    /// Op type, the unit latencies are grouped by (`"lih.strict"`).
    pub label: &'static str,
    pub circuit: Circuit,
    pub strategy: Strategy,
    pub theta: Vec<f64>,
}

impl Op {
    pub fn new(label: &'static str, circuit: &Circuit, strategy: Strategy, theta: Vec<f64>) -> Op {
        Op {
            label,
            circuit: circuit.clone(),
            strategy,
            theta,
        }
    }

    /// The same op at another binding.
    pub fn at(&self, theta: Vec<f64>) -> Op {
        Op {
            theta,
            ..self.clone()
        }
    }
}

/// The deterministic binding the paper-table binaries use for "a random
/// parametrization was set".
pub fn reference_parameters(count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| 0.37 + 0.61 * (i as f64 * 1.7).sin())
        .collect()
}

/// The reference binding moved by a seeded offset of at most `radius` per
/// parameter: where a seeded θ walk starts.
pub fn seeded_parameters(count: usize, radius: f64, rng: &mut Rng) -> Vec<f64> {
    reference_parameters(count)
        .into_iter()
        .map(|theta| theta + rng.uniform(-radius, radius))
        .collect()
}

/// A fresh binding, uniform over a full turn per parameter.
pub fn fresh_parameters(count: usize, rng: &mut Rng) -> Vec<f64> {
    (0..count)
        .map(|_| rng.uniform(-std::f64::consts::PI, std::f64::consts::PI))
        .collect()
}

/// One step of a θ random walk: every parameter moves by at most `step`.
pub fn walk(theta: &mut [f64], step: f64, rng: &mut Rng) {
    for value in theta.iter_mut() {
        *value += rng.uniform(-step, step);
    }
}

pub fn h2() -> Circuit {
    uccsd::uccsd_circuit(Molecule::H2)
}

pub fn lih() -> Circuit {
    uccsd::uccsd_circuit(Molecule::LiH)
}

/// QAOA MAXCUT, one round, on a seeded random 3-regular graph with 6 nodes.
pub fn qaoa_regular(rng: &mut Rng) -> Circuit {
    // Both 3-regular graphs on 6 nodes exist for every seed the sampler is
    // given; it fails only for odd degree sums.
    let graph = Graph::three_regular(6, rng.next_u64()).expect("3-regular graphs on 6 nodes exist");
    qaoa::qaoa_circuit(&graph, 1)
}

/// Edges of the Erdős–Rényi G(n, M) workload graph: the mean edge count of
/// G(6, 1/2) rounded down, so every seed draws a circuit of the same size and
/// only its structure varies.
const GNM_EDGES: usize = 7;

/// QAOA MAXCUT, two rounds, on a seeded Erdős–Rényi G(6, 7) graph.
pub fn qaoa_gnm(rng: &mut Rng) -> Circuit {
    let mut candidates: Vec<(usize, usize)> = (0..6)
        .flat_map(|a| (a + 1..6).map(move |b| (a, b)))
        .collect();
    let mut edges = Vec::with_capacity(GNM_EDGES);
    for _ in 0..GNM_EDGES {
        edges.push(candidates.swap_remove(rng.below(candidates.len())));
    }
    qaoa::qaoa_circuit(&Graph::new(6, &edges), 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let draw = |seed| {
            let mut rng = Rng::stream(seed, 3);
            let circuit = qaoa_gnm(&mut rng);
            (circuit, fresh_parameters(4, &mut rng))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).1, draw(8).1);
        assert_ne!(
            Rng::stream(7, 1).next_u64(),
            Rng::stream(7, 2).next_u64(),
            "streams of one seed are independent"
        );
    }

    #[test]
    fn gnm_graphs_have_a_fixed_size() {
        for seed in 0..20 {
            let circuit = qaoa_gnm(&mut Rng::new(seed));
            assert_eq!(circuit.num_qubits(), 6);
            assert_eq!(circuit.num_parameters(), 4);
            assert_eq!(
                circuit.len(),
                qaoa_gnm(&mut Rng::new(0)).len(),
                "seed {seed} changes the circuit's size"
            );
        }
    }
}
