//! Pinned digests of every suite network's compiled artifact, in two
//! parts.
//!
//! The *code* digest is an FNV-1a hash over what a compile emits for one
//! `(network, level, cores)` point: the phase labels, every kernel's
//! program words, its guard specs (which carry each matvec region's
//! descriptor and folded checksums), the DMA descriptors, the staged
//! TCDM image and the input/output descriptors. A refactor of the
//! compiler or of the simulator's tiers that keeps all of them leaves
//! every artifact byte-identical; any change to code generation, staging
//! order or guard folding moves a digest.
//!
//! The *tier* pin records what the translator made of that code: how
//! many declared kernel regions verified and installed as shortcuts, and
//! how many micro-ops the verification walked. It moves when the
//! shortcut verifier learns (or forgets) a region kind, without the
//! emitted code moving.

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

fn code_digest(compiled: &CompiledNetwork) -> u64 {
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

/// Installed shortcut regions and verification micro-ops walked, summed
/// over every kernel of the artifact.
fn tiers(compiled: &CompiledNetwork) -> (usize, u64) {
    compiled
        .cluster()
        .phases
        .iter()
        .flat_map(|p| p.kernels.iter().flatten())
        .fold((0, 0), |(n, w), k| {
            (n + k.uops.shortcut_regions(), w + k.uops.verify_ops())
        })
}

/// `(network, level tag, cores, code digest)`, recorded from the
/// compiler before level a's dot-product regions were declared: they
/// changed no emitted code.
const PINNED_CODE: &[(&str, &str, usize, u64)] = &[
    ("challita2017", "a", 1, 0x2af4dedc2a64712b),
    ("challita2017", "a", 4, 0xb3bfcb1e4f275e84),
    ("challita2017", "b", 1, 0xcdd856f11182a40b),
    ("challita2017", "b", 4, 0x5fb1074e892434a4),
    ("challita2017", "c", 1, 0x286bb0703993b914),
    ("challita2017", "c", 4, 0x3bb1f38a181d11c4),
    ("challita2017", "d", 1, 0x2e97b3cc2e2a0054),
    ("challita2017", "d", 4, 0x6735a9b8887747bc),
    ("challita2017", "e", 1, 0x2335c381e9eda8b1),
    ("challita2017", "e", 4, 0xc444ac82139cc238),
    ("naparstek2019", "a", 1, 0x48bf471107fbb212),
    ("naparstek2019", "a", 4, 0x35b669c9e02b1549),
    ("naparstek2019", "b", 1, 0x406e24452da41446),
    ("naparstek2019", "b", 4, 0x7adc389bbf69a2a9),
    ("naparstek2019", "c", 1, 0xd72b951e804b8006),
    ("naparstek2019", "c", 4, 0xbb735e9739e00579),
    ("naparstek2019", "d", 1, 0x8a23df473da6b02d),
    ("naparstek2019", "d", 4, 0x7b19b545d58f9741),
    ("naparstek2019", "e", 1, 0xb2f2d2613dca439c),
    ("naparstek2019", "e", 4, 0xbdd5039c79e199b9),
    ("ahmed2019", "a", 1, 0x0c0bf9f024596cbe),
    ("ahmed2019", "a", 4, 0x8cf22c8a8a32666e),
    ("ahmed2019", "b", 1, 0x7daf97920befb613),
    ("ahmed2019", "b", 4, 0x772561d880391814),
    ("ahmed2019", "c", 1, 0x8bec38559d755431),
    ("ahmed2019", "c", 4, 0xe8d3a88e23af6150),
    ("ahmed2019", "d", 1, 0x37061b918b6fa631),
    ("ahmed2019", "d", 4, 0xaad4dfd8283d4790),
    ("ahmed2019", "e", 1, 0xeeb07fa2c77f12ff),
    ("ahmed2019", "e", 4, 0xd261603efe509232),
    ("eisen2019", "a", 1, 0xfe579fef42e124ba),
    ("eisen2019", "a", 4, 0x274019ba86ece39c),
    ("eisen2019", "b", 1, 0x6ba16396ddd5faca),
    ("eisen2019", "b", 4, 0xf75ee5b0182f350c),
    ("eisen2019", "c", 1, 0xccb6ced4bbf72c54),
    ("eisen2019", "c", 4, 0x0e5c55cbdb048f30),
    ("eisen2019", "d", 1, 0x72c09b6532ed61eb),
    ("eisen2019", "d", 4, 0x6703bdc92bd07bac),
    ("eisen2019", "e", 1, 0x74fc062fecc37826),
    ("eisen2019", "e", 4, 0x0a6d6c003b287304),
    ("lee2018", "a", 1, 0x18ed30799e465176),
    ("lee2018", "a", 4, 0xc4c1c33fede0aea5),
    ("lee2018", "b", 1, 0xa5382da8c799e283),
    ("lee2018", "b", 4, 0x31a207706a980461),
    ("lee2018", "c", 1, 0x9281980535a8ca44),
    ("lee2018", "c", 4, 0xdaabae5235f0ff83),
    ("lee2018", "d", 1, 0xd8f94fb7ae2c0790),
    ("lee2018", "d", 4, 0xb7b6bf14c7bdc8a1),
    ("lee2018", "e", 1, 0xb10913b6493f268a),
    ("lee2018", "e", 4, 0xebd78d8bab1880fd),
    ("nasir2018", "a", 1, 0x189e2451b2feea2d),
    ("nasir2018", "a", 4, 0x297aa09f1f7b60da),
    ("nasir2018", "b", 1, 0xe12269ae5818bffd),
    ("nasir2018", "b", 4, 0x6949860b3bf7d9ba),
    ("nasir2018", "c", 1, 0x611d6481452f1e9c),
    ("nasir2018", "c", 4, 0x8d9758128f679f94),
    ("nasir2018", "d", 1, 0x46c839c52718f8b0),
    ("nasir2018", "d", 4, 0x93c9d351766e044c),
    ("nasir2018", "e", 1, 0x5a6de9c188262386),
    ("nasir2018", "e", 4, 0x29340ba924b97d6a),
    ("sun2017", "a", 1, 0x8708c3853688370c),
    ("sun2017", "a", 4, 0x05e1b188fc6efdd5),
    ("sun2017", "b", 1, 0xf5f7d8add98be8a9),
    ("sun2017", "b", 4, 0x7469b8a9d4eea83d),
    ("sun2017", "c", 1, 0x8a1e335031da49a1),
    ("sun2017", "c", 4, 0x5e084cbcfccf0bb1),
    ("sun2017", "d", 1, 0xd06413a3bc8423b6),
    ("sun2017", "d", 4, 0x4ddae37862608477),
    ("sun2017", "e", 1, 0x970e28cec5360ac9),
    ("sun2017", "e", 4, 0xd047ba5a8b4535e9),
    ("ye2018", "a", 1, 0x3062fa48f189829d),
    ("ye2018", "a", 4, 0x05b2e89ec1a07705),
    ("ye2018", "b", 1, 0x17a0ddbac71385b4),
    ("ye2018", "b", 4, 0x5a232df8a6d46a5b),
    ("ye2018", "c", 1, 0x6c3d9b977b842f91),
    ("ye2018", "c", 4, 0xc9ddbe2c19d76db9),
    ("ye2018", "d", 1, 0xbb892c7d28ce41df),
    ("ye2018", "d", 4, 0x2d220f93bf268217),
    ("ye2018", "e", 1, 0x95ad8bb6cff9216f),
    ("ye2018", "e", 4, 0xcc12dccc61c9b957),
    ("yu2017", "a", 1, 0x0d34a50c447e390e),
    ("yu2017", "a", 4, 0xaf1aaffb5f79f891),
    ("yu2017", "b", 1, 0x62eccadf6506df05),
    ("yu2017", "b", 4, 0x1499b06d0ef9669b),
    ("yu2017", "c", 1, 0xddba20d302da9d8c),
    ("yu2017", "c", 4, 0x01feb9da034f3257),
    ("yu2017", "d", 1, 0xb312f5d1879c8a54),
    ("yu2017", "d", 4, 0x6166cf41aaf398ab),
    ("yu2017", "e", 1, 0xf11657dced206d2a),
    ("yu2017", "e", 4, 0x75e98cb3b91e87bd),
    ("wang2018", "a", 1, 0x38b05577f4fea597),
    ("wang2018", "a", 4, 0x4170df266e172ea5),
    ("wang2018", "b", 1, 0xe2162db75c3752d9),
    ("wang2018", "b", 4, 0x40deed347ae7f0b5),
    ("wang2018", "c", 1, 0x50264fabf65b679e),
    ("wang2018", "c", 4, 0x325584e9ff81ed6d),
    ("wang2018", "d", 1, 0xeb82175c03edc5ea),
    ("wang2018", "d", 4, 0x4c9821fb99de9907),
    ("wang2018", "e", 1, 0xe0d31ebc8765acfe),
    ("wang2018", "e", 4, 0x0c799020de5e7687),
];

/// `(network, level tag, cores, installed regions, walked micro-ops)`.
const PINNED_TIERS: &[(&str, &str, usize, usize, u64)] = &[
    ("challita2017", "a", 1, 6, 307),
    ("challita2017", "a", 4, 168, 8680),
    ("challita2017", "b", 1, 1, 207),
    ("challita2017", "b", 4, 4, 5112),
    ("challita2017", "c", 1, 7, 3419),
    ("challita2017", "c", 4, 208, 32480),
    ("challita2017", "d", 1, 7, 2879),
    ("challita2017", "d", 4, 208, 27920),
    ("challita2017", "e", 1, 7, 3555),
    ("challita2017", "e", 4, 208, 33792),
    ("naparstek2019", "a", 1, 5, 259),
    ("naparstek2019", "a", 4, 132, 6832),
    ("naparstek2019", "b", 1, 0, 149),
    ("naparstek2019", "b", 4, 0, 3928),
    ("naparstek2019", "c", 1, 6, 1684),
    ("naparstek2019", "c", 4, 164, 14460),
    ("naparstek2019", "d", 1, 6, 1432),
    ("naparstek2019", "d", 4, 164, 12644),
    ("naparstek2019", "e", 1, 6, 1756),
    ("naparstek2019", "e", 4, 164, 14988),
    ("ahmed2019", "a", 1, 3, 144),
    ("ahmed2019", "a", 4, 12, 576),
    ("ahmed2019", "b", 1, 3, 171),
    ("ahmed2019", "b", 4, 12, 684),
    ("ahmed2019", "c", 1, 3, 8973),
    ("ahmed2019", "c", 4, 12, 9036),
    ("ahmed2019", "d", 1, 3, 7461),
    ("ahmed2019", "d", 4, 12, 7524),
    ("ahmed2019", "e", 1, 3, 9309),
    ("ahmed2019", "e", 4, 12, 9372),
    ("eisen2019", "a", 1, 3, 144),
    ("eisen2019", "a", 4, 12, 576),
    ("eisen2019", "b", 1, 3, 171),
    ("eisen2019", "b", 4, 12, 652),
    ("eisen2019", "c", 1, 3, 551),
    ("eisen2019", "c", 4, 12, 670),
    ("eisen2019", "d", 1, 3, 461),
    ("eisen2019", "d", 4, 12, 694),
    ("eisen2019", "e", 1, 3, 593),
    ("eisen2019", "e", 4, 12, 818),
    ("lee2018", "a", 1, 4, 202),
    ("lee2018", "a", 4, 16, 808),
    ("lee2018", "b", 1, 3, 212),
    ("lee2018", "b", 4, 12, 848),
    ("lee2018", "c", 1, 4, 975),
    ("lee2018", "c", 4, 16, 2304),
    ("lee2018", "d", 1, 4, 823),
    ("lee2018", "d", 4, 16, 1992),
    ("lee2018", "e", 1, 4, 1029),
    ("lee2018", "e", 4, 16, 2488),
    ("nasir2018", "a", 1, 3, 144),
    ("nasir2018", "a", 4, 12, 576),
    ("nasir2018", "b", 1, 3, 171),
    ("nasir2018", "b", 4, 12, 684),
    ("nasir2018", "c", 1, 3, 6597),
    ("nasir2018", "c", 4, 12, 6708),
    ("nasir2018", "d", 1, 3, 5481),
    ("nasir2018", "d", 4, 12, 5644),
    ("nasir2018", "e", 1, 3, 7252),
    ("nasir2018", "e", 4, 12, 7420),
    ("sun2017", "a", 1, 3, 144),
    ("sun2017", "a", 4, 12, 576),
    ("sun2017", "b", 1, 3, 171),
    ("sun2017", "b", 4, 12, 684),
    ("sun2017", "c", 1, 3, 6205),
    ("sun2017", "c", 4, 12, 6316),
    ("sun2017", "d", 1, 3, 5161),
    ("sun2017", "d", 4, 12, 5324),
    ("sun2017", "e", 1, 3, 6800),
    ("sun2017", "e", 4, 12, 6968),
    ("ye2018", "a", 1, 4, 192),
    ("ye2018", "a", 4, 16, 768),
    ("ye2018", "b", 1, 4, 229),
    ("ye2018", "b", 4, 16, 916),
    ("ye2018", "c", 1, 4, 10012),
    ("ye2018", "c", 4, 16, 10152),
    ("ye2018", "d", 1, 4, 8338),
    ("ye2018", "d", 4, 16, 8592),
    ("ye2018", "e", 1, 4, 11066),
    ("ye2018", "e", 4, 16, 11312),
    ("yu2017", "a", 1, 3, 144),
    ("yu2017", "a", 4, 12, 576),
    ("yu2017", "b", 1, 3, 171),
    ("yu2017", "b", 4, 12, 684),
    ("yu2017", "c", 1, 3, 8385),
    ("yu2017", "c", 4, 12, 8464),
    ("yu2017", "d", 1, 3, 6981),
    ("yu2017", "d", 4, 12, 7104),
    ("yu2017", "e", 1, 3, 8697),
    ("yu2017", "e", 4, 12, 8816),
    ("wang2018", "a", 1, 3, 144),
    ("wang2018", "a", 4, 12, 576),
    ("wang2018", "b", 1, 3, 171),
    ("wang2018", "b", 4, 12, 684),
    ("wang2018", "c", 1, 3, 4501),
    ("wang2018", "c", 4, 12, 4580),
    ("wang2018", "d", 1, 3, 3753),
    ("wang2018", "d", 4, 12, 3836),
    ("wang2018", "e", 1, 3, 4669),
    ("wang2018", "e", 4, 12, 4756),
];

#[test]
fn every_suite_artifact_matches_its_pinned_code_digest() {
    let got = compile_all(code_digest);
    let table: String = got
        .iter()
        .map(|(id, tag, cores, d)| format!("    (\"{id}\", \"{tag}\", {cores}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED_CODE.len(), "digest table:\n{table}");
    for (g, p) in got.iter().zip(PINNED_CODE) {
        assert_eq!(g, p, "digest table:\n{table}");
    }
}

#[test]
fn every_suite_artifact_matches_its_pinned_tiers() {
    let got: Vec<_> = compile_all(tiers)
        .into_iter()
        .map(|(id, tag, cores, (regions, walked))| (id, tag, cores, regions, walked))
        .collect();
    let table: String = got
        .iter()
        .map(|(id, tag, cores, n, w)| format!("    (\"{id}\", \"{tag}\", {cores}, {n}, {w}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED_TIERS.len(), "tier table:\n{table}");
    for (g, p) in got.iter().zip(PINNED_TIERS) {
        assert_eq!(g, p, "tier table:\n{table}");
    }
}

/// `f` of every suite network at every level on 1 and 4 cores.
fn compile_all<T: Send>(
    f: impl Fn(&CompiledNetwork) -> T + Sync,
) -> Vec<(&'static str, &'static str, usize, T)> {
    let suite = rnnasip_rrm::suite();
    let cases: Vec<(usize, OptLevel, usize)> = (0..suite.len())
        .flat_map(|i| {
            OptLevel::ALL
                .into_iter()
                .flat_map(move |level| [1, 4].map(|cores| (i, level, cores)))
        })
        .collect();
    par::par_map(&cases, |&(i, level, cores)| {
        let net = &suite[i];
        let compiled = KernelBackend::new(level)
            .with_cores(cores)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{} at {level:?} on {cores} cores: {e}", net.id));
        (net.id, level.tag(), cores, f(&compiled))
    })
}
