//go:build !unix

package main

import "time"

// cpuTime is unavailable here; bench.cpu_util reads 0.
func cpuTime() time.Duration { return 0 }
