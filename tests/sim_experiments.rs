//! Table III's paper section is data (`lp_bench::table3::TABLE_III`):
//! its rendering is, byte for byte, what `table3` printed while the
//! cells were computed by a simulator (`fixtures/table3_paper.txt`, kept
//! from that output).

#[test]
fn table3_full_matrix() {
    assert_eq!(
        lp_bench::table3::render_paper(),
        include_str!("fixtures/table3_paper.txt")
    );
}
