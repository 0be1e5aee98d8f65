//! Twig²Stack's enumeration emits rows strictly increasing in the
//! canonical row order (`gtpquery::cmp_rows`: cells `Null < Node <
//! Group`, nodes in document order, groups lexicographic) — duplicate-free
//! and in document order with no post-processing (paper §4). The
//! subscription diff sorts both match sets before its merge, so its
//! correctness does not rest on this; the property is what makes each of
//! those sorts a single linear pass.

use gtpquery::cmp_rows;
use twigbench::workload::{
    dblp, dblp_queries, fig18_variants, fig19_variants, treebank, treebank_queries, xmark,
    xmark_queries, Profile,
};

#[test]
fn figure_queries_enumerate_in_canonical_row_order() {
    let cases = [
        (
            dblp(Profile::Quick),
            [dblp_queries(), fig18_variants()].concat(),
        ),
        (
            xmark(Profile::Quick, 1),
            [xmark_queries(), fig19_variants()].concat(),
        ),
        (treebank(Profile::Quick), treebank_queries()),
    ];
    for (ds, queries) in cases {
        for nq in queries {
            let rs = twig2stack::evaluate(&ds.doc, &nq.gtp);
            if let Some(i) = rs
                .rows
                .windows(2)
                .position(|w| cmp_rows(&w[0], &w[1]).is_ge())
            {
                panic!(
                    "{} on {}: row {} is not above row {i} ({:?} then {:?})",
                    nq.name,
                    ds.name,
                    i + 1,
                    rs.rows[i],
                    rs.rows[i + 1]
                );
            }
        }
    }
}
