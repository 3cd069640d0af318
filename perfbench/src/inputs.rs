//! Seeded input generation. The program under test only ever sees what
//! these functions produce: SNAP text, edge batches and query windows,
//! all derived from the benchmark's `--seed`.

use temporal_graph::gen::GenConfig;
use temporal_graph::TemporalGraph;

/// splitmix64: one step of a seeded stream.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed derived from the run seed, a purpose label and an index, so
/// every input stream is independent of the others.
#[must_use]
pub fn derive(seed: u64, label: &str, index: u64) -> u64 {
    let mut state =
        seed ^ fnv1a(label.as_bytes()).rotate_left(17) ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut state)
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Fingerprint of a set of inputs, folded to 48 bits so it survives a
/// round trip through a JSON number read as a double.
#[must_use]
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let h = parts
        .into_iter()
        .fold(0u64, |acc, p| fnv1a(p) ^ acc.rotate_left(5).wrapping_mul(3));
    (h ^ (h >> 48)) & ((1 << 48) - 1)
}

/// The generator settings of a Table II stand-in at `1/scale` size,
/// with the registry's fixed seed replaced by `seed`.
///
/// # Panics
/// If `name` is not a registry dataset.
#[must_use]
pub fn stand_in(name: &str, scale: usize, seed: u64) -> GenConfig {
    let spec = hare_datasets::by_name(name).expect("registry dataset");
    GenConfig {
        seed,
        ..spec.gen_config(scale)
    }
}

/// A graph as SNAP `src dst t` text, one edge per line.
#[must_use]
pub fn snap_text(g: &TemporalGraph) -> String {
    let mut out = Vec::with_capacity(g.num_edges() * 20);
    temporal_graph::io::write_edges(g, &mut out).expect("writing to memory cannot fail");
    String::from_utf8(out).expect("SNAP text is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(seed: u64) -> String {
        snap_text(&stand_in("CollegeMsg", 8, derive(seed, "test", 0)).generate())
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (a, b) = (text(11), text(11));
        assert_eq!(a, b);
        assert_eq!(fingerprint([a.as_bytes()]), fingerprint([b.as_bytes()]));
    }

    #[test]
    fn different_seed_changes_the_fingerprint() {
        let (a, b) = (text(11), text(12));
        assert_ne!(a, b);
        assert_ne!(fingerprint([a.as_bytes()]), fingerprint([b.as_bytes()]));
    }

    #[test]
    fn derived_streams_are_independent() {
        assert_ne!(derive(1, "a", 0), derive(1, "b", 0));
        assert_ne!(derive(1, "a", 0), derive(1, "a", 1));
        assert_ne!(derive(1, "a", 0), derive(2, "a", 0));
        assert_eq!(derive(1, "a", 0), derive(1, "a", 0));
    }

    #[test]
    fn fingerprint_fits_a_double_and_depends_on_order() {
        let fp = fingerprint([b"x".as_slice(), b"y".as_slice()]);
        assert!(fp < 1 << 48);
        assert_ne!(fp, fingerprint([b"y".as_slice(), b"x".as_slice()]));
    }
}
