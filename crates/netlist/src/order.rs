//! Natural ordering for hierarchical paths.
//!
//! Generated members are named with numeric suffixes (`Cu0`, `Cu1`, …,
//! `Cu10`), so plain lexicographic ordering interleaves them
//! (`Cu0 < Cu10 < Cu1`) and any export keyed on it scrambles the
//! physical array order. [`natural_cmp`] compares digit runs by value
//! and everything else byte-wise, which sorts `Cu2` before `Cu10` and
//! keeps `top/X2/C1` stable against `top/X10/C1`.

use std::cmp::Ordering;

/// Compare two strings with digit runs ordered numerically.
///
/// Digit runs compare by value — significant length (leading zeros
/// stripped), then digits — and runs of equal value by length, so `07`
/// follows `7` and the order stays total at any run length: two strings
/// compare equal only when they are equal. Non-digit bytes compare as
/// usual.
///
/// # Example
///
/// ```
/// use ancstr_netlist::order::natural_cmp;
/// use std::cmp::Ordering;
///
/// assert_eq!(natural_cmp("Cu2", "Cu10"), Ordering::Less);
/// assert_eq!(natural_cmp("top/X9/M1", "top/X10/M1"), Ordering::Less);
/// assert_eq!(natural_cmp("a", "b"), Ordering::Less);
/// ```
pub fn natural_cmp(a: &str, b: &str) -> Ordering {
    cmp_keys(
        Key {
            text: a.as_bytes(),
            slash: false,
        },
        Key {
            text: b.as_bytes(),
            slash: false,
        },
    )
}

/// [`natural_cmp`] of `a` and `b`, each followed by one `/` where its
/// flag is set, without building either string. A sibling name with the
/// slash stands for the paths beneath that sibling.
pub(crate) fn natural_cmp_suffixed(a: &str, a_slash: bool, b: &str, b_slash: bool) -> Ordering {
    cmp_keys(
        Key {
            text: a.as_bytes(),
            slash: a_slash,
        },
        Key {
            text: b.as_bytes(),
            slash: b_slash,
        },
    )
}

/// A string, optionally followed by one `/`. The slash is no digit, so
/// every digit run lies inside `text`.
#[derive(Clone, Copy)]
struct Key<'a> {
    text: &'a [u8],
    slash: bool,
}

impl Key<'_> {
    fn len(self) -> usize {
        self.text.len() + usize::from(self.slash)
    }

    fn at(self, i: usize) -> u8 {
        self.text.get(i).copied().unwrap_or(b'/')
    }
}

fn cmp_keys(a: Key<'_>, b: Key<'_>) -> Ordering {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ca, cb) = (a.at(i), b.at(j));
        if ca.is_ascii_digit() && cb.is_ascii_digit() {
            let ia = digit_run_end(a.text, i);
            let jb = digit_run_end(b.text, j);
            match cmp_digit_runs(&a.text[i..ia], &b.text[j..jb]) {
                Ordering::Equal => {}
                other => return other,
            }
            i = ia;
            j = jb;
        } else {
            match ca.cmp(&cb) {
                Ordering::Equal => {}
                other => return other,
            }
            i += 1;
            j += 1;
        }
    }
    (a.len() - i).cmp(&(b.len() - j))
}

/// End of the digit run starting at `start`.
fn digit_run_end(s: &[u8], start: usize) -> usize {
    start + s[start..].iter().take_while(|c| c.is_ascii_digit()).count()
}

/// Two digit runs by value (significant length, then digits), then by
/// length: `07` and `7` are equal in value and differ in spelling.
fn cmp_digit_runs(a: &[u8], b: &[u8]) -> Ordering {
    let significant = |run: &[u8]| {
        let zeros = run.iter().take_while(|&&c| c == b'0').count();
        run.len() - zeros
    };
    let (sa, sb) = (significant(a), significant(b));
    sa.cmp(&sb)
        .then_with(|| a[a.len() - sa..].cmp(&b[b.len() - sb..]))
        .then_with(|| a.len().cmp(&b.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_runs_compare_by_value() {
        let mut names = vec!["Cu10", "Cu2", "Cu0", "Cu1", "Cu21"];
        names.sort_by(|a, b| natural_cmp(a, b));
        assert_eq!(names, vec!["Cu0", "Cu1", "Cu2", "Cu10", "Cu21"]);
    }

    #[test]
    fn non_digit_text_stays_lexicographic() {
        assert_eq!(natural_cmp("abc", "abd"), Ordering::Less);
        assert_eq!(natural_cmp("abc", "abc"), Ordering::Equal);
        assert_eq!(natural_cmp("b", "ab"), Ordering::Greater);
    }

    #[test]
    fn prefix_orders_before_extension() {
        assert_eq!(natural_cmp("top/X1", "top/X1/M1"), Ordering::Less);
    }

    #[test]
    fn equal_values_with_different_spellings_stay_total() {
        assert_eq!(natural_cmp("a07", "a7"), Ordering::Greater);
        assert_eq!(natural_cmp("a7", "a07"), Ordering::Less);
        assert_eq!(natural_cmp("a07b", "a7c"), Ordering::Greater);
    }

    /// Runs past `u64::MAX` still compare by value: a saturating parse
    /// read these two as equal.
    #[test]
    fn long_digit_runs_never_tie() {
        assert_eq!(
            natural_cmp("X99999999999999999999", "X99999999999999999998"),
            Ordering::Greater
        );
        assert_eq!(
            natural_cmp("X100000000000000000000", "X99999999999999999999"),
            Ordering::Greater
        );
        assert_eq!(
            natural_cmp("X0099999999999999999999", "X99999999999999999999"),
            Ordering::Greater
        );
        assert_eq!(
            natural_cmp("X99999999999999999999", "X99999999999999999999"),
            Ordering::Equal
        );
    }

    #[test]
    fn suffixed_compare_appends_one_slash() {
        let pairs = [
            ("X", "X-1"),
            ("M1", "M1.2"),
            ("a7", "a07"),
            ("Cu2", "Cu10"),
            ("X1", "X1a"),
        ];
        let with = |s: &str, slash: bool| if slash { format!("{s}/") } else { s.to_owned() };
        for (a, b) in pairs {
            for (sa, sb) in [(false, false), (false, true), (true, false), (true, true)] {
                assert_eq!(
                    natural_cmp_suffixed(a, sa, b, sb),
                    natural_cmp(&with(a, sa), &with(b, sb)),
                    "{a:?}/{sa} vs {b:?}/{sb}"
                );
            }
        }
    }

    #[test]
    fn paths_with_multiple_runs() {
        let mut paths = vec!["t/X10/C2", "t/X2/C10", "t/X2/C2", "t/X10/C1"];
        paths.sort_by(|a, b| natural_cmp(a, b));
        assert_eq!(paths, vec!["t/X2/C2", "t/X2/C10", "t/X10/C1", "t/X10/C2"]);
    }
}
