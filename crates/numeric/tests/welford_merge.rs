//! Property-based tests for the parallel Welford merge (Chan et al.), the
//! primitive for combining statistics gathered in parts:
//! exact commutativity (via the fp-stable operand ordering rule),
//! associativity up to floating-point rounding, and merge-of-splits
//! agreeing with a sequential feed of the concatenated stream.

use numeric::stats::Welford;
use proptest::prelude::*;

fn samples(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (-1.0e4..1.0e4f64).prop_filter("finite", |v| v.is_finite()),
        max_len,
    )
}

fn fold(samples: &[f64]) -> Welford {
    let mut w = Welford::new();
    for &x in samples {
        w.push(x);
    }
    w
}

/// Relative-or-absolute closeness at the numerical-noise bar.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #[test]
    fn merge_is_exactly_commutative(a in samples(40), b in samples(25)) {
        let (wa, wb) = (fold(&a), fold(&b));
        // Bit-identical, not merely close: the ordering rule canonicalises
        // the operand pair before the asymmetric combination formula runs.
        prop_assert_eq!(wa.merge(&wb), wb.merge(&wa));
    }

    #[test]
    fn merge_is_associative_up_to_rounding(
        a in samples(30),
        b in samples(20),
        c in samples(35),
    ) {
        let (wa, wb, wc) = (fold(&a), fold(&b), fold(&c));
        let left = wa.merge(&wb).merge(&wc);
        let right = wa.merge(&wb.merge(&wc));
        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.min(), right.min(), "min folds exactly");
        prop_assert_eq!(left.max(), right.max(), "max folds exactly");
        prop_assert!(close(left.mean(), right.mean(), 1e-10),
            "mean {} vs {}", left.mean(), right.mean());
        prop_assert!(close(left.variance(), right.variance(), 1e-7),
            "variance {} vs {}", left.variance(), right.variance());
    }

    #[test]
    fn merge_of_splits_matches_sequential_feed(
        stream in samples(60),
        split_a in 0..61usize,
        split_b in 0..61usize,
    ) {
        // Split the stream at two arbitrary points into three shards; the
        // shard merge must agree with feeding the whole stream to one
        // accumulator.
        let (lo, hi) = (split_a.min(split_b), split_a.max(split_b));
        let whole = fold(&stream);
        let merged = fold(&stream[..lo])
            .merge(&fold(&stream[lo..hi]))
            .merge(&fold(&stream[hi..]));
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.min(), whole.min(), "min is exact");
        prop_assert_eq!(merged.max(), whole.max(), "max is exact");
        prop_assert!(close(merged.mean(), whole.mean(), 1e-10),
            "mean {} vs {}", merged.mean(), whole.mean());
        prop_assert!(close(merged.variance(), whole.variance(), 1e-7),
            "variance {} vs {}", merged.variance(), whole.variance());
    }

    #[test]
    fn empty_is_a_two_sided_identity(a in samples(30)) {
        let w = fold(&a);
        prop_assert_eq!(w.merge(&Welford::new()), w);
        prop_assert_eq!(Welford::new().merge(&w), w);
    }
}
