//! [`counter_table!`](crate::counter_table): every statistics struct of the
//! simulator is one table, one row per counter, and the struct, its
//! serialised field list and its merges are all generated from the rows.

/// Concatenates the name lists of a table's rows into its `FIELD_NAMES`.
#[doc(hidden)]
pub const fn flatten<const N: usize>(rows: &[&[&'static str]]) -> [&'static str; N] {
    let mut out = [""; N];
    let (mut n, mut r) = (0, 0);
    while r < rows.len() {
        let mut i = 0;
        while i < rows[r].len() {
            out[n] = rows[r][i];
            n += 1;
            i += 1;
        }
        r += 1;
    }
    assert!(n == N, "row lengths do not add up to the table length");
    out
}

/// Declares a statistics struct from its counter table. A row is a doc
/// comment and `name: type = rule`:
///
/// | rule | type | `accumulate` (one after the other) | `merge_parallel` (side by side) |
/// |---|---|---|---|
/// | `sum` | `u64` / `usize` | add | add |
/// | `max` | `u64` / `usize` | maximum (a high-water mark) | maximum |
/// | `makespan` | `u64` / `usize` | add | maximum (`Stats::cycles`) |
/// | `nested` | another table | its `accumulate` | its `merge_parallel` |
///
/// A table may name a `prefix`: its serialised names are prefix + field
/// name, so a parent that nests it lists `q_pushes`, … without spelling
/// them out. Serialised order is row order, nested tables inline. That
/// list is the checkpoint and golden-file format, pinned by a test next to
/// `warpweave_core::CHECKPOINT_VERSION` (ARCHITECTURE.md, "Adding or
/// removing a counter").
///
/// # Examples
/// ```
/// warpweave_mem::counter_table! {
///     /// Queue counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct QueueStats, prefix "q_" {
///         /// Requests pushed.
///         pushes: u64 = sum,
///         /// Deepest the queue got.
///         max_depth: usize = max,
///     }
/// }
///
/// assert_eq!(QueueStats::FIELD_NAMES, ["q_pushes", "q_max_depth"]);
/// let mut a = QueueStats { pushes: 2, max_depth: 5 };
/// a.accumulate(&QueueStats { pushes: 3, max_depth: 4 });
/// assert_eq!(a.to_fields(), [("q_pushes", 5), ("q_max_depth", 5)]);
/// assert_eq!(QueueStats::from_fields(&a.to_fields()), Ok(a));
/// ```
///
/// A row without a merge rule is not a counter and does not compile, so a
/// field can never be serialised yet silently left out of the merges:
/// ```compile_fail
/// warpweave_mem::counter_table! {
///     /// Queue counters.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct QueueStats, prefix "q_" {
///         /// Requests pushed.
///         pushes: u64 = sum,
///         /// Deepest the queue got.
///         max_depth: usize,
///     }
/// }
/// ```
#[macro_export]
macro_rules! counter_table {
    ($(#[$meta:meta])* pub struct $name:ident { $($rows:tt)* }) => {
        $crate::counter_table! { $(#[$meta])* pub struct $name, prefix "" { $($rows)* } }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident, prefix $prefix:literal {
            $($(#[$doc:meta])* $field:ident : $ty:ident = $rule:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $name {
            /// The serialised name of every counter, in canonical order.
            pub const FIELD_NAMES: [&'static str; 0 $(+ $crate::counter_table!(@len $rule $ty))*] =
                $crate::counters::flatten(&[$($crate::counter_table!(
                    @names $rule $ty, concat!($prefix, stringify!($field))
                )),*]);

            /// The canonical `(name, value)` list of every counter, in
            /// [`Self::FIELD_NAMES`] order (`usize` counters widened).
            pub fn to_fields(&self) -> Vec<(&'static str, u64)> {
                let mut out = Vec::with_capacity(Self::FIELD_NAMES.len());
                self.push_fields(&mut out);
                out
            }

            /// [`Self::to_fields`], appended to a parent table's list.
            #[doc(hidden)]
            pub fn push_fields(&self, out: &mut Vec<(&'static str, u64)>) {
                $($crate::counter_table!(
                    @push $rule $ty, self.$field, concat!($prefix, stringify!($field)), out
                );)*
            }

            /// Rebuilds the record from a [`Self::to_fields`] list. Strict:
            /// the names must be exactly [`Self::FIELD_NAMES`], in order,
            /// so a list written by a different table is rejected instead
            /// of being half-applied.
            ///
            /// # Errors
            /// The first slot whose name differs (or is missing, or is one
            /// too many), or a value too wide for a `usize` counter.
            pub fn from_fields(fields: &[(&str, u64)]) -> Result<$name, String> {
                let found = |i: usize| fields.get(i).map(|&(name, _)| name);
                let want = |i: usize| Self::FIELD_NAMES.get(i).copied();
                let slots = fields.len().max(Self::FIELD_NAMES.len());
                if let Some(i) = (0..slots).find(|&i| found(i) != want(i)) {
                    return Err(format!(
                        "{} field {i}: expected {:?}, found {:?}",
                        stringify!($name),
                        want(i),
                        found(i)
                    ));
                }
                Self::take_values(&mut fields.iter().map(|&(_, value)| value))
            }

            /// Reads this table's counters off the front of `values`, whose
            /// names the caller has already checked ([`Self::from_fields`],
            /// or the checkpoint codec's one-pass section reader).
            #[doc(hidden)]
            pub fn take_values(values: &mut impl Iterator<Item = u64>) -> Result<$name, String> {
                Ok($name {
                    $($field: $crate::counter_table!(
                        @take $rule $ty, concat!($prefix, stringify!($field)), values
                    ),)*
                })
            }

            /// Folds a record that came *after* this one into it (launch
            /// after launch, channel after channel), row by row.
            pub fn accumulate(&mut self, other: &$name) {
                $($crate::counter_table!(@serial $rule, self, other, $field);)*
            }

            /// Folds a record that ran *beside* this one into it (the SMs
            /// of one machine): [`Self::accumulate`], except that a
            /// `makespan` row takes the maximum.
            pub fn merge_parallel(&mut self, other: &$name) {
                $($crate::counter_table!(@parallel $rule, self, other, $field);)*
            }
        }
    };

    (@len nested $ty:ident) => { $ty::FIELD_NAMES.len() };
    (@len $rule:ident $ty:ident) => { 1 };
    (@names nested $ty:ident, $name:expr) => { &$ty::FIELD_NAMES };
    (@names $rule:ident $ty:ident, $name:expr) => { &[$name] };

    (@push nested $ty:ident, $value:expr, $name:expr, $out:ident) => { $value.push_fields($out) };
    (@push $rule:ident u64, $value:expr, $name:expr, $out:ident) => { $out.push(($name, $value)) };
    (@push $rule:ident usize, $value:expr, $name:expr, $out:ident) => {
        $out.push(($name, $value as u64))
    };

    (@take nested $ty:ident, $name:expr, $values:ident) => { $ty::take_values($values)? };
    (@take $rule:ident u64, $name:expr, $values:ident) => {
        $values.next().expect("count checked by the caller")
    };
    (@take $rule:ident usize, $name:expr, $values:ident) => {{
        let value = $values.next().expect("count checked by the caller");
        usize::try_from(value)
            .map_err(|_| format!("field `{}` value {value} exceeds usize", $name))?
    }};

    (@serial sum, $a:ident, $b:ident, $f:ident) => { $a.$f += $b.$f };
    (@serial max, $a:ident, $b:ident, $f:ident) => { $a.$f = $a.$f.max($b.$f) };
    (@serial makespan, $a:ident, $b:ident, $f:ident) => { $a.$f += $b.$f };
    (@serial nested, $a:ident, $b:ident, $f:ident) => { $a.$f.accumulate(&$b.$f) };
    (@parallel makespan, $a:ident, $b:ident, $f:ident) => { $a.$f = $a.$f.max($b.$f) };
    (@parallel nested, $a:ident, $b:ident, $f:ident) => { $a.$f.merge_parallel(&$b.$f) };
    (@parallel $rule:ident, $a:ident, $b:ident, $f:ident) => {
        $crate::counter_table!(@serial $rule, $a, $b, $f)
    };
}
