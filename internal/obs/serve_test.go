package obs

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The serving tiers' shared tail on a real listener: the -pprof mount
// serves a CPU profile, and a signal drains the server while a request is
// in flight — the request completes, Serve returns nil only after it. The
// signal is a value on the channel Serve reads, never one sent to the test
// process.
func TestServeProfilesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "done")
	})
	sig, drained := make(chan os.Signal, 1), make(chan struct{})
	var logs bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- Serve(ln, WithPprof(mux), sig, func() { close(drained) }, 10*time.Second, log.New(&logs, "", 0))
	}()
	client := &http.Client{Transport: &http.Transport{}}
	base := "http://" + ln.Addr().String()

	resp, err := client.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// A CPU profile is gzipped protobuf.
	if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(profile, []byte{0x1f, 0x8b}) {
		t.Fatalf("/debug/pprof/profile: HTTP %d, %d bytes: %.80q", resp.StatusCode, len(profile), profile)
	}

	type result struct {
		code int
		body string
		err  error
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := client.Get(base + "/slow")
		if err != nil {
			slow <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		slow <- result{resp.StatusCode, string(body), err}
	}()
	<-started
	sig <- syscall.SIGTERM
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the signal did not start the drain")
	}
	select {
	case err := <-done:
		t.Fatalf("Serve returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-slow; r.err != nil || r.code != http.StatusOK || r.body != "done" {
		t.Fatalf("in-flight request: HTTP %d %q, %v", r.code, r.body, r.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !strings.HasSuffix(logs.String(), "drained cleanly\n") {
		t.Fatalf("log does not end in a clean drain:\n%s", logs.String())
	}
	client.CloseIdleConnections()
}
