package obs

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// The pieces of a run every cmd/ tool sets up the same way.

// Main runs a tool and exits with the code run returns, or — on an error —
// with 1 after printing "tool: error" to stderr.
func Main(tool string, run func() (int, error)) {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, tool+":", err)
		code = 1
	}
	os.Exit(code)
}

// SalvageExit ends a tool that read its input through ReadLines: when
// lines were skipped the output was rendered from salvaged, incomplete
// data, so it says so on stderr and returns exit code 2; otherwise 0.
// what names the input ("log", "trace", "history").
func SalvageExit(tool, what string, skipped int) int {
	if skipped == 0 {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: skipped %d corrupt %s lines (use -strict to fail instead)\n", tool, skipped, what)
	return 2
}

// SignalContext returns a context cancelled by the first SIGINT or SIGTERM
// (SIGTERM is what container runtimes send on stop), so a run can drain —
// flush logs, write its manifest — instead of dying with lost output. The
// default handlers are restored at that moment: a second signal kills the
// process. stop releases the handler early.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

// ServeDebug runs the -debug-addr server over the Default registry for the
// length of a CLI run, announcing the bound address on stderr. The
// returned stop keeps the server up for linger (-debug-linger) before
// shutting it down; defer it. An empty addr starts nothing.
func ServeDebug(addr string, linger time.Duration, progress func() any) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	bound, stopServer, err := StartDebugServer(addr, Default, progress)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "debug server on http://%s\n", bound)
	return func() {
		if linger > 0 {
			fmt.Fprintf(os.Stderr, "debug server lingering %s\n", linger)
			time.Sleep(linger)
		}
		stopServer()
	}, nil
}

// DumpMetrics writes the Default registry to path as the -metrics JSON
// dump, atomically.
func DumpMetrics(path string) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		return Default.WriteJSON(w)
	})
}
