//! Pinned digests of every suite network's compiled artifact.
//!
//! Each digest is an FNV-1a hash over everything a compile produces for
//! one `(network, level, cores)` point: the phase labels, every kernel's
//! program words, its installed shortcut-region count and verification
//! walk, its guard specs (which carry each matvec region's descriptor
//! and folded checksums), the DMA descriptors, the staged TCDM image and
//! the input/output descriptors. A refactor of the compiler that keeps
//! all of them leaves every artifact byte-identical; any change to code
//! generation, staging order or region declaration moves a digest.

use rnnasip_bench::par;
use rnnasip_core::{CompiledNetwork, KernelBackend, OptLevel};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(compiled: &CompiledNetwork) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    let cluster = compiled.cluster();
    h.u64(cluster.cores as u64);
    for phase in &cluster.phases {
        h.bytes(phase.label.as_bytes());
        for kernel in &phase.kernels {
            let Some(k) = kernel else {
                h.u64(u64::MAX);
                continue;
            };
            h.bytes(&k.program.to_bytes());
            h.u64(k.uops.shortcut_regions() as u64);
            h.u64(k.uops.verify_ops());
            h.u64(k.guards.len() as u64);
            for g in k.guards.iter() {
                h.u64(u64::from(g.start_addr));
                h.u64(u64::from(g.end_addr));
                h.bytes(format!("{:?}", g.region).as_bytes());
                for c in &g.checksum {
                    h.bytes(&c.to_le_bytes());
                }
                h.bytes(&g.bias_sum.to_le_bytes());
            }
        }
    }
    for x in &cluster.dma {
        for v in [x.src, x.dst, x.len] {
            h.u64(u64::from(v));
        }
    }
    h.u64(compiled.guards().len() as u64);
    let image = compiled.image();
    h.u64(image.len() as u64);
    h.bytes(image.populated());
    let (input, output) = (compiled.input(), compiled.output());
    for v in [
        u64::from(input.base()),
        input.width() as u64,
        input.steps() as u64,
        u64::from(output.base()),
        output.len() as u64,
    ] {
        h.u64(v);
    }
    h.0
}

/// `(network, level tag, cores, digest)`, recorded from the compiler
/// before the one-core and cluster compile drivers were merged.
const PINNED: &[(&str, &str, usize, u64)] = &[
    ("challita2017", "a", 1, 0x0671ead57a91770c),
    ("challita2017", "a", 4, 0x89a5bce2b6b89dc8),
    ("challita2017", "b", 1, 0xdc82a3d07d05a2dc),
    ("challita2017", "b", 4, 0x889c6c63187c51e8),
    ("challita2017", "c", 1, 0x8dac65a06c03eb6b),
    ("challita2017", "c", 4, 0x297f2b1b7945b348),
    ("challita2017", "d", 1, 0x6a5844f069804625),
    ("challita2017", "d", 4, 0x2744664c9347c48c),
    ("challita2017", "e", 1, 0x472a8e4f1e8b6de2),
    ("challita2017", "e", 4, 0x51c28e0881624d34),
    ("naparstek2019", "a", 1, 0xbcf86fa08efbb6b3),
    ("naparstek2019", "a", 4, 0x5852c11bcbb9c95d),
    ("naparstek2019", "b", 1, 0x2b0bd7d2bca95693),
    ("naparstek2019", "b", 4, 0x081eaa83f229df2d),
    ("naparstek2019", "c", 1, 0x77a5d95e9884b85a),
    ("naparstek2019", "c", 4, 0x47dd8780eb87cfd5),
    ("naparstek2019", "d", 1, 0x3843599661f87ee0),
    ("naparstek2019", "d", 4, 0x0a5b7c88bc0fff41),
    ("naparstek2019", "e", 1, 0x5fdcbf84936d95f8),
    ("naparstek2019", "e", 4, 0x073d103bfb82a9ad),
    ("ahmed2019", "a", 1, 0x057ef500e926f08c),
    ("ahmed2019", "a", 4, 0xaa151eee97edf072),
    ("ahmed2019", "b", 1, 0x627fc09b88d5e79c),
    ("ahmed2019", "b", 4, 0x6d3b17bf17169eb0),
    ("ahmed2019", "c", 1, 0x99ae9bef437c77fa),
    ("ahmed2019", "c", 4, 0xb6ce6df81475a042),
    ("ahmed2019", "d", 1, 0x68093fd432b3d6d0),
    ("ahmed2019", "d", 4, 0xb70543c3a46124f6),
    ("ahmed2019", "e", 1, 0x04c4e7ce01e7d101),
    ("ahmed2019", "e", 4, 0xb67627afcdaae014),
    ("eisen2019", "a", 1, 0xb64cef9ce3f59980),
    ("eisen2019", "a", 4, 0xec8eb92db72c15c4),
    ("eisen2019", "b", 1, 0x7aafe25b19644105),
    ("eisen2019", "b", 4, 0x912deea143a91d00),
    ("eisen2019", "c", 1, 0x1039784ad4256502),
    ("eisen2019", "c", 4, 0x439f2ae5c3af3f1a),
    ("eisen2019", "d", 1, 0x356f972d184c3276),
    ("eisen2019", "d", 4, 0x56cb0de4024ebb66),
    ("eisen2019", "e", 1, 0xab2cb1345727a47a),
    ("eisen2019", "e", 4, 0x979b174ddf862976),
    ("lee2018", "a", 1, 0xd9ea476edda4ad46),
    ("lee2018", "a", 4, 0x2f223f8bdd7562d5),
    ("lee2018", "b", 1, 0x12a5aa187cbfff92),
    ("lee2018", "b", 4, 0x255c1aa2e8510001),
    ("lee2018", "c", 1, 0x3ebf542842cbb052),
    ("lee2018", "c", 4, 0x0998e6f951fa9c6f),
    ("lee2018", "d", 1, 0x7d17fc30d58ce666),
    ("lee2018", "d", 4, 0xe44cc165fbfd7765),
    ("lee2018", "e", 1, 0x622860916edf0c57),
    ("lee2018", "e", 4, 0x2b42810c8f02fda9),
    ("nasir2018", "a", 1, 0xccc2b7cc3cb5af93),
    ("nasir2018", "a", 4, 0x8264df17acbeb89a),
    ("nasir2018", "b", 1, 0x7c7f202a5ddc119f),
    ("nasir2018", "b", 4, 0x4457d81110b52cdc),
    ("nasir2018", "c", 1, 0x466baeb43c54691d),
    ("nasir2018", "c", 4, 0xd10b0ce36cfb66fc),
    ("nasir2018", "d", 1, 0x272e0cd617680381),
    ("nasir2018", "d", 4, 0x65dd4c57be8e089c),
    ("nasir2018", "e", 1, 0x1a42bcfd0bbbbcb5),
    ("nasir2018", "e", 4, 0x410c4438047e0bf6),
    ("sun2017", "a", 1, 0xf55d76131e37011a),
    ("sun2017", "a", 4, 0xbf500f6a469d1e51),
    ("sun2017", "b", 1, 0x5e8e5ffaba67b215),
    ("sun2017", "b", 4, 0xd81de338c86d9075),
    ("sun2017", "c", 1, 0xa9cd9edb0e31bcab),
    ("sun2017", "c", 4, 0x5be9accfd82ea27d),
    ("sun2017", "d", 1, 0x580163637bac9354),
    ("sun2017", "d", 4, 0xb29ac8019e649edf),
    ("sun2017", "e", 1, 0xa1aa71bd45bb671e),
    ("sun2017", "e", 4, 0xf5df522b77ac6955),
    ("ye2018", "a", 1, 0x76c33691221a4545),
    ("ye2018", "a", 4, 0x6cdb8b0f9d605c4d),
    ("ye2018", "b", 1, 0x4895ab6dc32799fd),
    ("ye2018", "b", 4, 0x3fabb181c210c563),
    ("ye2018", "c", 1, 0xbb99e477c55c1c68),
    ("ye2018", "c", 4, 0x92444ce06ed38ebf),
    ("ye2018", "d", 1, 0xc5f2fbf382d36099),
    ("ye2018", "d", 4, 0x9e7f8aab51d1f46f),
    ("ye2018", "e", 1, 0xd2fd3d265a5dfa1c),
    ("ye2018", "e", 4, 0x355d1946c141ff29),
    ("yu2017", "a", 1, 0xeefc6a2b4ca0ca80),
    ("yu2017", "a", 4, 0x0199fa97f1d56acd),
    ("yu2017", "b", 1, 0x2a6e684562513a44),
    ("yu2017", "b", 4, 0x41bb141403317c7b),
    ("yu2017", "c", 1, 0x8f2327d94c80855a),
    ("yu2017", "c", 4, 0x6196c4f6bd8a3415),
    ("yu2017", "d", 1, 0x23a693ab9311cc4d),
    ("yu2017", "d", 4, 0x0c2c77ad221ea39d),
    ("yu2017", "e", 1, 0x86a81f014938269d),
    ("yu2017", "e", 4, 0x0b7923bb708812d3),
    ("wang2018", "a", 1, 0x7f4131cd2d35ef95),
    ("wang2018", "a", 4, 0x7fdff27dbf16559d),
    ("wang2018", "b", 1, 0x3cc062964de2df9c),
    ("wang2018", "b", 4, 0x6d78c31431e0a073),
    ("wang2018", "c", 1, 0xaf9cf8654ff822e1),
    ("wang2018", "c", 4, 0x8f2a6e9ea8c45865),
    ("wang2018", "d", 1, 0x92d98064d442693a),
    ("wang2018", "d", 4, 0x82210dd3ade5a149),
    ("wang2018", "e", 1, 0x6d2b32ef4ac2a212),
    ("wang2018", "e", 4, 0xa9739e31dfd82d1f),
];

#[test]
fn every_suite_artifact_matches_its_pinned_digest() {
    let suite = rnnasip_rrm::suite();
    let cases: Vec<(usize, OptLevel, usize)> = (0..suite.len())
        .flat_map(|i| {
            OptLevel::ALL
                .into_iter()
                .flat_map(move |level| [1, 4].map(|cores| (i, level, cores)))
        })
        .collect();
    let got: Vec<(&str, &str, usize, u64)> = par::par_map(&cases, |&(i, level, cores)| {
        let net = &suite[i];
        let compiled = KernelBackend::new(level)
            .with_cores(cores)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{} at {level:?} on {cores} cores: {e}", net.id));
        (net.id, level.tag(), cores, digest(&compiled))
    });
    let table: String = got
        .iter()
        .map(|(id, tag, cores, d)| format!("    (\"{id}\", \"{tag}\", {cores}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "digest table:\n{table}");
    for (g, p) in got.iter().zip(PINNED) {
        assert_eq!(g, p, "digest table:\n{table}");
    }
}
