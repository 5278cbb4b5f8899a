//! Strategy combinators: how random structured values are described.

use super::Source;
use crate::rng::RngExt;
use std::fmt::Debug;
use std::sync::Arc;

/// A recipe for generating random values of one type from a [`Source`].
///
/// Unlike upstream proptest there is no per-value shrink tree: shrinking
/// happens on the choice stream (see the module docs), so implementors
/// only ever define [`Strategy::generate`] — and must draw **exclusively**
/// through the source, never from ambient state, or replay breaks.
pub trait Strategy: 'static {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, src: &mut Source) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: Debug,
        F: Fn(Self::Value) -> O + 'static,
    {
        Map { inner: self, f }
    }

    /// Recursively nests this strategy: `expand` receives a strategy for
    /// the nested occurrences and returns the composite level.
    ///
    /// `depth` bounds the nesting; `desired_size` and `expected_branch`
    /// are accepted for source compatibility with upstream proptest but
    /// only influence the leaf/branch bias mildly.
    fn prop_recursive<F, S2>(
        self,
        depth: u32,
        desired_size: u32,
        expected_branch: u32,
        expand: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized,
        F: Fn(BoxedStrategy<Self::Value>) -> S2 + 'static,
        S2: Strategy<Value = Self::Value>,
    {
        let _ = (desired_size, expected_branch);
        Recursive {
            base: self.boxed(),
            expand: Arc::new(move |inner| expand(inner).boxed()),
            depth,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T: Debug + 'static> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, src: &mut Source) -> T {
        self.0.generate(src)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug + 'static> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _src: &mut Source) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O + 'static,
{
    type Value = O;

    fn generate(&self, src: &mut Source) -> O {
        (self.f)(self.inner.generate(src))
    }
}

/// See [`Strategy::prop_recursive`].
pub struct Recursive<T> {
    base: BoxedStrategy<T>,
    expand: Arc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
    depth: u32,
}

impl<T> Clone for Recursive<T> {
    fn clone(&self) -> Self {
        Recursive {
            base: self.base.clone(),
            expand: Arc::clone(&self.expand),
            depth: self.depth,
        }
    }
}

impl<T: Debug + 'static> Strategy for Recursive<T> {
    type Value = T;

    fn generate(&self, src: &mut Source) -> T {
        if self.depth == 0 {
            return self.base.generate(src);
        }
        // Bias toward branching while depth remains, tapering as it runs
        // out; the draw itself goes through the source so shrinking can
        // collapse branches into leaves.
        let p_branch = self.depth as f64 / (self.depth as f64 + 1.0);
        if src.random_bool(p_branch) {
            let inner = Recursive {
                base: self.base.clone(),
                expand: Arc::clone(&self.expand),
                depth: self.depth - 1,
            }
            .boxed();
            (self.expand)(inner).generate(src)
        } else {
            self.base.generate(src)
        }
    }
}

/// Uniform choice between alternative strategies for the same type —
/// what [`crate::prop_oneof!`] builds.
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T: Debug + 'static> Union<T> {
    /// A union over the given (non-empty) alternatives.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T: Debug + 'static> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, src: &mut Source) -> T {
        let i = src.random_range(0..self.options.len());
        self.options[i].generate(src)
    }
}

/// Uniform choice from a fixed slice of values (`proptest::sample::select`).
#[derive(Debug, Clone)]
pub struct Select<T: 'static> {
    choices: &'static [T],
}

/// A strategy drawing uniformly from `choices`.
pub fn select<T: Clone + Debug>(choices: &'static [T]) -> Select<T> {
    assert!(!choices.is_empty(), "select() needs a non-empty slice");
    Select { choices }
}

impl<T: Clone + Debug + 'static> Strategy for Select<T> {
    type Value = T;

    fn generate(&self, src: &mut Source) -> T {
        let i = src.random_range(0..self.choices.len());
        self.choices[i].clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source) -> $t {
                src.random_range(self.clone())
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, src: &mut Source) -> $t {
                src.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, char);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, src: &mut Source) -> Self::Value {
                ($(self.$idx.generate(src),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::*;

    /// Bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty length range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, src: &mut Source) -> Vec<S::Value> {
            let len = src.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.generate(src)).collect()
        }
    }
}
