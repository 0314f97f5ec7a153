package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"malsched/internal/instance"
	"malsched/internal/router"
	"malsched/internal/wire"
)

// TestParallelismAcceptedAndIgnored pins the wire contract of the
// parallelism option: both codecs still carry it and the server still
// range-checks it, but a value inside the range changes nothing — the
// answer, probes included, is byte-identical to the same request without
// the field. Every request goes to a fresh server, so each one misses the
// memo and runs a search; each is sent through Server.Serve and through
// the router.
func TestParallelismAcceptedAndIgnored(t *testing.T) {
	in := instance.Mixed(4, 30, 16)
	raw := mustRaw(t, in)
	request := func(codec string, opts *wire.RequestOptions) (body []byte, contentType string) {
		if codec == "binary" {
			return wire.AppendScheduleRequest(nil, in, nil, opts), wire.ContentType
		}
		return mustJSON(t, wire.ScheduleRequest{Instance: raw, Options: opts}), "application/json"
	}
	serve := func(entry, codec string, opts *wire.RequestOptions) (int, []byte) {
		t.Helper()
		body, ct := request(codec, opts)
		s := New(Config{Workers: 1})
		if entry == "Serve" {
			status, _, out, _, err := s.Serve(context.Background(), wire.PathSchedule, ct, body, "", nil)
			if err != nil {
				t.Fatalf("Serve: %v", err)
			}
			return status, out
		}
		rt, err := router.New(router.Config{Backends: []router.Backend{{Name: "s0", Handler: s.Handler()}}})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		req := httptest.NewRequest(http.MethodPost, wire.PathSchedule, bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	errorOf := func(codec string, body []byte) wire.ErrorInfo {
		t.Helper()
		if codec == "binary" {
			eb, err := wire.DecodeError(body)
			if err != nil {
				t.Fatalf("not a binary error body: %v", err)
			}
			return eb.Error
		}
		var eb wire.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("not a JSON error body: %v (%s)", err, body)
		}
		return eb.Error
	}

	for _, codec := range []string{"json", "binary"} {
		for _, entry := range []string{"Serve", "router"} {
			what := codec + " via " + entry
			wantStatus, want := serve(entry, codec, &wire.RequestOptions{})
			if wantStatus != http.StatusOK {
				t.Fatalf("%s: HTTP %d without parallelism: %q", what, wantStatus, want)
			}
			status, got := serve(entry, codec, &wire.RequestOptions{Parallelism: 8})
			if status != wantStatus || !bytes.Equal(got, want) {
				t.Errorf("%s: parallelism 8 answered HTTP %d %q, without it HTTP %d %q", what, status, got, wantStatus, want)
			}
			for _, p := range []int{-1, DefaultMaxParallel + 1} {
				status, body := serve(entry, codec, &wire.RequestOptions{Parallelism: p})
				if status != http.StatusBadRequest {
					t.Fatalf("%s: parallelism %d answered HTTP %d, want 400", what, p, status)
				}
				e := errorOf(codec, body)
				if msg := fmt.Sprintf("parallelism must be in [0, 64], got %d", p); e.Code != wire.CodeBadOptions || e.Message != msg {
					t.Errorf("%s: parallelism %d answered %+v, want %s %q", what, p, e, wire.CodeBadOptions, msg)
				}
			}
		}
	}
}
