package live

// rdtsc reads the CPU's time-stamp counter.
func rdtsc() uint64

// tscInvariant reports whether the time-stamp counter ticks at a
// constant rate through every power state.
func tscInvariant() bool
