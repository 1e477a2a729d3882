//! Seeded program instances drawn from the `warp_compiler::corpus`
//! generators. The seed decides every size and, through the input
//! seed, every input word; the program under test sees only the
//! generated source and inputs.

use warp_common::SplitMix64;
use warp_compiler::corpus;

/// Size bands per family. An instance's band fixes its rough size; the
/// seed draws the exact size inside the band, a few percent wide, so
/// two seeds give instance sets of the same shape and nearly the same
/// cost: run-to-run spread comes from the machine, not the draw.
pub const BANDS: u32 = 4;

/// The loop-kernel families of the `kernels` workload.
pub const KERNELS: [&str; 5] = ["polynomial", "conv1d", "mandelbrot", "fft", "matmul"];

/// The image families of the `images` workload.
pub const IMAGES: [&str; 3] = ["binop", "colorseg", "grayseg"];

/// The seven corpus families of the `serve` universe, in the order
/// their variants take the Zipf ranks: kernels and images alternate
/// from the top rank down, so the image share of the traffic does not
/// hinge on which family a seed happens to put first.
pub const SERVE: [&str; 7] = [
    "polynomial",
    "binop",
    "conv1d",
    "colorseg",
    "mandelbrot",
    "fft",
    "matmul",
];

#[derive(Clone, Debug)]
pub struct Instance {
    pub family: &'static str,
    /// The generator arguments, e.g. `512x496`.
    pub size: String,
    pub source: String,
    /// Seed of the instance's input words (`audit::seeded_inputs`).
    pub input_seed: u64,
}

impl Instance {
    pub fn label(&self) -> String {
        format!("{}[{}]", self.family, self.size)
    }

    pub fn is_image(&self) -> bool {
        IMAGES.contains(&self.family)
    }
}

fn pick(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + (rng.next_u64() % u64::from(hi - lo + 1)) as u32
}

/// One instance of `family` in size band `band` (0-based, < [`BANDS`]).
/// `image_side` is the band-0 image side; each band adds `image_step`.
pub fn instance(
    family: &'static str,
    band: u32,
    image_side: u32,
    image_step: u32,
    rng: &mut SplitMix64,
) -> Instance {
    let b = band;
    let (size, source) = match family {
        "polynomial" => {
            let (cells, points) = (4 + 4 * b + pick(rng, 0, 1), 64 + 64 * b + pick(rng, 0, 8));
            (
                format!("{cells}x{points}"),
                corpus::polynomial_source(cells, points),
            )
        }
        "conv1d" => {
            let (taps, n) = (3 + 2 * b, 128 + 128 * b + pick(rng, 0, 8));
            (format!("{taps}x{n}"), corpus::conv1d_source(taps, n))
        }
        "mandelbrot" => {
            let (side, iters) = (8 + 8 * b + pick(rng, 0, 1), 2 + b);
            (
                format!("{side}x{iters}"),
                corpus::mandelbrot_source(side, iters),
            )
        }
        "fft" => {
            let n = 4 << b;
            (format!("{n}"), corpus::fft_source(n))
        }
        "matmul" => {
            let (cells, m, p, w) = (2 + b / 2, 2 + b + pick(rng, 0, 1), 2 + b, 1 + b % 2);
            (
                format!("{cells}x{m}x{p}x{w}"),
                corpus::matmul_source(cells, m, p, w),
            )
        }
        "binop" | "colorseg" | "grayseg" => {
            let base = image_side + image_step * b;
            let (rows, cols) = (base + pick(rng, 0, 16), base + pick(rng, 0, 16));
            let source = match family {
                "binop" => corpus::binop_source(rows, cols),
                "colorseg" => corpus::colorseg_source(rows, cols),
                _ => corpus::grayseg_source(rows, cols),
            };
            (format!("{rows}x{cols}"), source)
        }
        other => unreachable!("unknown family {other}"),
    };
    Instance {
        family,
        size,
        source,
        input_seed: rng.next_u64(),
    }
}

/// `per_family` instances of each family, cycling through the size
/// bands, family-major.
pub fn draw(
    seed: u64,
    families: &[&'static str],
    per_family: u32,
    image_side: u32,
    image_step: u32,
) -> Vec<Instance> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for &family in families {
        for i in 0..per_family {
            out.push(instance(
                family,
                i % BANDS,
                image_side,
                image_step,
                &mut rng,
            ));
        }
    }
    out
}

/// The `serve` universe: every family in every band, ordered by Zipf
/// rank (band-major, families in [`SERVE`] order).
pub fn serve_universe(seed: u64, image_side: u32, image_step: u32) -> Vec<Instance> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_0000);
    let mut out = Vec::new();
    for band in 0..BANDS {
        for &family in &SERVE {
            out.push(instance(family, band, image_side, image_step, &mut rng));
        }
    }
    out
}

/// Draws Zipf(1) ranks over `n` items by inverting the cumulative
/// harmonic weights.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}
