//go:build !ee_invariants

package exec

// retire is the release-build stand-in for the scan-scratch poisoner: the
// next block simply overwrites the previous one in place.
func (*scanScratch) retire() {}

// poisonUnselected is the release-build stand-in for the late-column
// poisoner: cells outside the selection keep whatever they held.
func (*scanScratch) poisonUnselected(uint64, []int32) {}
