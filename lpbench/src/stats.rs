//! The benchmark's own arithmetic: medians, quartiles, and the
//! repetition-of-blocks reduction every workload's numbers go through.

/// Median of `values` (mean of the two middle values for even counts).
/// `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile by the "exclusive" method — the same
/// numbers Python's `statistics.quantiles(values, n=4)` returns as its
/// first and last element. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let at = |i: usize| {
        // Position i*(n+1)/4 in 1-based order statistics, clamped so
        // the interpolation stays inside the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark's acceptance rule is written in.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// One timed block: `ops` operations took `wall_ns` of wall time and
/// `cpu_ns` of CPU time (all threads of the process under test), and
/// `failed` of them produced a wrong result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Block {
    pub ops: u64,
    pub failed: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Peak resident set of the process under test, when the block is
    /// the only place it can be read (a child reaped by the block).
    pub rss_kib: u64,
}

impl Block {
    fn wall_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops.max(1) as f64
    }

    fn cpu_per_op(&self) -> f64 {
        self.cpu_ns as f64 / self.ops.max(1) as f64
    }
}

/// One repetition: the `none` blocks and the mechanism blocks that ran
/// back to back.
#[derive(Clone, Debug, Default)]
pub struct Repetition {
    pub none: Vec<Block>,
    pub mech: Vec<Block>,
}

/// What the repetitions reduce to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reduced {
    /// Median over repetitions of the median mechanism block (ns/op).
    pub op_ns: f64,
    /// Same for the `none` side — the base of `overhead_x`.
    pub none_op_ns: f64,
    /// Median over repetitions of `mech / none` *within* a repetition,
    /// so drift between repetitions cancels.
    pub overhead_x: f64,
    /// Median over repetitions of the median mechanism block's CPU
    /// time per op.
    pub cpu_ns_per_op: f64,
    /// Same for the `none` side.
    pub none_cpu_ns_per_op: f64,
    /// Median over repetitions of the CPU time per op, `mech / none`
    /// within a repetition.
    pub cpu_overhead_x: f64,
    /// Interquartile range of the repetitions' `op_ns`, `overhead_x`
    /// and `cpu_overhead_x` as a share of their median (0 below two
    /// repetitions): how steady this one run was inside.
    pub op_ns_spread: f64,
    pub overhead_x_spread: f64,
    pub cpu_overhead_x_spread: f64,
    pub repetitions: usize,
    pub blocks: usize,
}

/// Block medians inside a repetition, then medians over repetitions.
/// `None` unless every repetition has blocks on both sides.
pub fn reduce(reps: &[Repetition]) -> Option<Reduced> {
    let mut op = Vec::new();
    let mut none_op = Vec::new();
    let mut ratio = Vec::new();
    let mut cpu = Vec::new();
    let mut none_cpu = Vec::new();
    let mut cpu_ratio = Vec::new();
    let mut blocks = 0;
    for rep in reps {
        let wall =
            |side: &[Block]| median(&side.iter().map(Block::wall_per_op).collect::<Vec<_>>());
        let cpu_of =
            |side: &[Block]| median(&side.iter().map(Block::cpu_per_op).collect::<Vec<_>>());
        let (m, n) = (wall(&rep.mech)?, wall(&rep.none)?);
        op.push(m);
        none_op.push(n);
        ratio.push(m / n);
        let (mc, nc) = (cpu_of(&rep.mech)?, cpu_of(&rep.none)?);
        cpu.push(mc);
        none_cpu.push(nc);
        cpu_ratio.push(mc / nc);
        blocks += rep.mech.len() + rep.none.len();
    }
    Some(Reduced {
        op_ns: median(&op)?,
        none_op_ns: median(&none_op)?,
        overhead_x: median(&ratio)?,
        cpu_ns_per_op: median(&cpu)?,
        none_cpu_ns_per_op: median(&none_cpu)?,
        cpu_overhead_x: median(&cpu_ratio)?,
        op_ns_spread: iqr_share(&op).unwrap_or(0.0),
        overhead_x_spread: iqr_share(&ratio).unwrap_or(0.0),
        cpu_overhead_x_spread: iqr_share(&cpu_ratio).unwrap_or(0.0),
        repetitions: reps.len(),
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&v).unwrap();
        assert!((share - 1.0).abs() < 1e-12);
    }

    fn block(ops: u64, wall_ns: u64, cpu_ns: u64) -> Block {
        Block {
            ops,
            wall_ns,
            cpu_ns,
            ..Block::default()
        }
    }

    #[test]
    fn reduction_takes_block_medians_then_repetition_medians() {
        // Repetition 1: one mechanism block is an outlier (a scheduler
        // stall); the block median ignores it.
        let r1 = Repetition {
            none: vec![
                block(10, 1000, 900),
                block(10, 1010, 900),
                block(10, 990, 900),
            ],
            mech: vec![
                block(10, 2000, 2100),
                block(10, 9000, 2100),
                block(10, 2020, 2100),
            ],
        };
        // Repetition 2 ran on a slower clock: both sides 10 % up, ratio
        // unchanged.
        let r2 = Repetition {
            none: vec![block(10, 1100, 990)],
            mech: vec![block(10, 2222, 2310)],
        };
        let r3 = Repetition {
            none: vec![block(10, 1000, 900)],
            mech: vec![block(10, 2020, 2100)],
        };
        let r = reduce(&[r1, r2, r3]).unwrap();
        assert_eq!(r.op_ns, 202.0);
        assert_eq!(r.none_op_ns, 100.0);
        assert!((r.overhead_x - 2.02).abs() < 1e-12);
        assert_eq!(r.cpu_ns_per_op, 210.0);
        // CPU per op is 2100/900 in every repetition, whatever the clock.
        assert!((r.cpu_overhead_x - 210.0 / 90.0).abs() < 1e-12);
        assert_eq!(r.repetitions, 3);
        assert_eq!(r.blocks, 10);
    }

    #[test]
    fn reduction_needs_both_sides() {
        let lopsided = Repetition {
            none: vec![],
            mech: vec![block(1, 1, 1)],
        };
        assert_eq!(reduce(&[lopsided]), None);
        assert_eq!(reduce(&[]), None);
    }
}
