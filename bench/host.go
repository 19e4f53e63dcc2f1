package main

import (
	"fmt"
	"os"
	"strings"
)

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
// It is 0 where /proc does not provide it.
func peakRSSMB(pid int) float64 {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kb); err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
