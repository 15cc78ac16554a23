//! Tensor shapes and shape errors.

use std::fmt;

use tpu_numerics::DType;

/// A dense row-major tensor shape of rank `1..=MAX_RANK`.
///
/// The dims are stored inline, so a shape is `Copy` and cloning a graph
/// or re-inferring its shapes never touches the heap. Slots past the
/// rank hold zero. No dim is zero, so the rank is the number of nonzero
/// slots, and the derived equality and hash compare exactly the dims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    dims: [u64; TensorShape::MAX_RANK],
}

/// Error produced by shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A dimension was zero.
    ZeroDim,
    /// A shape had no dimensions.
    Scalar,
    /// Two shapes that must match do not.
    Mismatch {
        /// Description of the constraint that failed.
        context: &'static str,
        /// Left-hand shape.
        lhs: TensorShape,
        /// Right-hand shape.
        rhs: TensorShape,
    },
    /// A shape has more dimensions than [`TensorShape::MAX_RANK`].
    RankTooLarge {
        /// Rank requested.
        rank: usize,
        /// The largest rank a shape can hold.
        max: usize,
    },
    /// The op requires a different rank.
    BadRank {
        /// Description of the op.
        context: &'static str,
        /// Rank found.
        found: usize,
        /// Rank expected.
        expected: usize,
    },
    /// A reshape changed the element count.
    ElementCountChanged {
        /// Elements before.
        from: u64,
        /// Elements requested.
        to: u64,
    },
    /// An operand id does not name an existing node of this graph
    /// (out of range: fabricated, or from a different graph).
    UnknownOperand {
        /// Description of the operand slot.
        context: &'static str,
        /// The offending id's raw index.
        index: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroDim => write!(f, "shape has a zero dimension"),
            ShapeError::Scalar => write!(f, "shape must have at least one dimension"),
            ShapeError::Mismatch { context, lhs, rhs } => {
                write!(f, "{context}: {lhs} vs {rhs}")
            }
            ShapeError::RankTooLarge { rank, max } => {
                write!(f, "shape has rank {rank}, more than the maximum {max}")
            }
            ShapeError::BadRank {
                context,
                found,
                expected,
            } => write!(f, "{context}: rank {found}, expected {expected}"),
            ShapeError::ElementCountChanged { from, to } => {
                write!(f, "reshape changes element count {from} -> {to}")
            }
            ShapeError::UnknownOperand {
                context,
                index,
                nodes,
            } => write!(
                f,
                "{context}: operand %{index} does not exist ({nodes} nodes)"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

impl TensorShape {
    /// The largest rank a shape can hold. Every op in the set is at most
    /// rank 4 (NHWC convolutions and pools).
    pub const MAX_RANK: usize = 4;

    /// Creates a shape, validating that it is non-scalar, has no zero
    /// dims and has at most [`TensorShape::MAX_RANK`] dims.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Scalar`], [`ShapeError::ZeroDim`] or
    /// [`ShapeError::RankTooLarge`].
    pub fn new(dims: &[u64]) -> Result<TensorShape, ShapeError> {
        if dims.is_empty() {
            return Err(ShapeError::Scalar);
        }
        if dims.len() > TensorShape::MAX_RANK {
            return Err(ShapeError::RankTooLarge {
                rank: dims.len(),
                max: TensorShape::MAX_RANK,
            });
        }
        if dims.contains(&0) {
            return Err(ShapeError::ZeroDim);
        }
        let mut inline = [0; TensorShape::MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        Ok(TensorShape { dims: inline })
    }

    /// This shape with its trailing dimension replaced by `trailing`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::ZeroDim`] if `trailing` is zero.
    pub(crate) fn with_trailing(mut self, trailing: u64) -> Result<TensorShape, ShapeError> {
        if trailing == 0 {
            return Err(ShapeError::ZeroDim);
        }
        self.dims[self.rank() - 1] = trailing;
        Ok(self)
    }

    /// The dimensions.
    pub fn dims(&self) -> &[u64] {
        &self.dims[..self.rank()]
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.iter().take_while(|&&d| d != 0).count()
    }

    /// Total element count.
    pub fn elements(&self) -> u64 {
        self.dims().iter().product()
    }

    /// Storage size in bytes at the given precision.
    pub fn bytes(&self, dtype: DType) -> u64 {
        self.elements() * dtype.size_bytes()
    }

    /// The leading (batch) dimension.
    pub fn leading(&self) -> u64 {
        self.dims[0]
    }

    /// The trailing (feature) dimension.
    pub fn trailing(&self) -> u64 {
        self.dims[self.rank() - 1]
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(TensorShape::new(&[2, 3]).is_ok());
        assert_eq!(TensorShape::new(&[]), Err(ShapeError::Scalar));
        assert_eq!(TensorShape::new(&[4, 0]), Err(ShapeError::ZeroDim));
    }

    #[test]
    fn accessors() {
        let s = TensorShape::new(&[4, 8, 16]).unwrap();
        assert_eq!(s.rank(), 3);
        assert_eq!(s.elements(), 512);
        assert_eq!(s.bytes(DType::Bf16), 1024);
        assert_eq!(s.bytes(DType::Int8), 512);
        assert_eq!(s.leading(), 4);
        assert_eq!(s.trailing(), 16);
    }

    #[test]
    fn max_rank_is_accepted_and_one_more_is_a_typed_error() {
        let max = vec![2; TensorShape::MAX_RANK];
        let s = TensorShape::new(&max).unwrap();
        assert_eq!(s.rank(), TensorShape::MAX_RANK);
        assert_eq!(s.dims(), &max[..]);
        let over = vec![2; TensorShape::MAX_RANK + 1];
        assert_eq!(
            TensorShape::new(&over),
            Err(ShapeError::RankTooLarge {
                rank: TensorShape::MAX_RANK + 1,
                max: TensorShape::MAX_RANK,
            })
        );
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let a = TensorShape::new(&[4, 8]).unwrap();
        let b = a.with_trailing(16).unwrap().with_trailing(8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, TensorShape::new(&[4, 8, 1]).unwrap());
        assert_eq!(a.with_trailing(0), Err(ShapeError::ZeroDim));
    }

    #[test]
    fn display() {
        let s = TensorShape::new(&[1, 128]).unwrap();
        assert_eq!(format!("{s}"), "[1, 128]");
        let e = ShapeError::ElementCountChanged { from: 4, to: 5 };
        assert!(format!("{e}").contains("4 -> 5"));
    }
}
