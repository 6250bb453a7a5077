//go:build race

package bench

// raceEnabled reports whether the race detector instruments this build.
// The kernels experiment's timed loops are skipped under instrumentation:
// the detector slows and reschedules everything, so its speedups are
// checked only by the uninstrumented CI bench-smoke job.
const raceEnabled = true
