//! # twigbaselines — baseline twig-join algorithms
//!
//! The comparison systems from the paper's evaluation, implemented from
//! their original papers:
//!
//! * [`naive`] — an exponential DOM-walk oracle defining GTP semantics;
//!   the ground truth for differential tests (not a paper baseline);
//! * [`pathstack`] — PathStack (Bruno et al., SIGMOD 2002) for linear
//!   paths;
//! * [`pathjoin`] — root-to-leaf path solutions and their merge-join into
//!   twig tuples (shared by TwigStack and TJFast);
//! * [`twigstack`] — TwigStack holistic twig join (Bruno et al. 2002);
//! * [`tjfast`] — TJFast (Lu et al., VLDB 2005): extended-Dewey leaf
//!   streams.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod naive;
pub mod pathjoin;
pub mod pathstack;
pub mod tjfast;
pub mod twigstack;

pub use naive::{evaluate as naive_evaluate, exists as naive_exists, SatTable};
pub use pathjoin::{merge_join, root_to_leaf_paths, JoinStats, PathSolutions};
pub use pathstack::{
    build_pruned_streams, build_streams, path_stack, path_stack_indexed, PathStackStats,
};
pub use tjfast::{
    tj_fast, tj_fast_indexed, tj_fast_solutions, DeweyKey, DeweyResolver, TJFastStats,
};
pub use twigstack::{
    try_twig_stack_solutions_with, try_twig_stack_with, twig_stack, twig_stack_indexed,
    twig_stack_solutions, twig_stack_solutions_with, twig_stack_with, TwigStackStats,
};

use gtpquery::{Gtp, Role};

/// True iff `gtp` is a *full twig*: every node is returned, no edge is
/// optional, and there are no OR-groups or value predicates — the
/// fragment TwigStack and TJFast implement.
pub fn is_full_twig(gtp: &Gtp) -> bool {
    gtp.iter()
        .all(|q| gtp.role(q) == Role::Return && gtp.edge(q).is_none_or(|e| !e.optional))
        && !gtp.has_or_groups()
        && !gtp.has_value_preds()
}

/// True iff `gtp` is a single root-to-leaf chain (PathStack's fragment,
/// together with [`is_full_twig`]).
pub fn is_linear(gtp: &Gtp) -> bool {
    gtp.iter().all(|q| gtp.children(q).len() <= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtpquery::parse_twig;

    #[test]
    fn shape_gates() {
        let full = parse_twig("//a[b]/c").unwrap();
        assert!(is_full_twig(&full));
        assert!(!is_linear(&full), "a has two children");
        let linear = parse_twig("//a/b/c").unwrap();
        assert!(is_full_twig(&linear));
        assert!(is_linear(&linear));
        let gtp_ext = parse_twig("//a/b!/c").unwrap();
        assert!(!is_full_twig(&gtp_ext));
    }
}
