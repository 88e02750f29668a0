// Package leakcheck fails a test binary that leaves goroutines of this
// module running after its tests: a value that owns a goroutine must stop
// it in Close, and a test must call Close.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests from TestMain and then requires that no
// goroutine with an activitytraj/internal/ frame on its stack remains.
// Goroutines wind down asynchronously after the Close that stops them
// returns their last result, so the check polls for a grace period before
// it reports the stacks still standing.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		leaked := remaining()
		for deadline := time.Now().Add(5 * time.Second); len(leaked) > 0 && time.Now().Before(deadline); leaked = remaining() {
			time.Sleep(10 * time.Millisecond)
		}
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines left running:\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// remaining returns the stacks of this module's goroutines other than the
// caller's own.
func remaining() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "activitytraj/internal/") && !strings.Contains(g, "leakcheck.Main") {
			out = append(out, g)
		}
	}
	return out
}
