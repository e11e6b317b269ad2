//go:build !amd64

package live

// Without a time-stamp counter to read, nanotime keeps the monotonic
// clock (useTSC is false).

func rdtsc() uint64 { return 0 }

func tscInvariant() bool { return false }
