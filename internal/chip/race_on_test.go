//go:build race

package chip

// raceDetectorOn reports whether this test binary was built with -race.
// The sampled-accuracy ledger (TestSamplingErrorBounds) trims itself to
// the short kernel subset under the detector: its runs are one-partition
// accuracy measurements, so race instrumentation adds ~20× wall clock and
// no concurrency coverage, and the full matrix already runs un-raced in
// the no-short suite (check.sh full, the CI push full-suite step).
const raceDetectorOn = true
