package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"
	"time"
)

// wireGoldenQuery reads every packet of the deterministic test feed and
// puts each value kind the wire writes into its rows: Uint and Int columns,
// negative Ints, floats in both of JSON's number forms, -0, ±Inf and NaN
// (null), a Bool, a string that needs escaping and a NULL.
const (
	wireGoldenVia   = "SELECT time, srcIP, destIP, srcPort, len, uts FROM PKT"
	wireGoldenQuery = `SELECT time, srcIP, len - 1000 AS d, len, srcPort / 7.0 AS f,
		srcPort / 1e9 AS tiny, srcPort * 1e19 AS big, (0 - len) * 0.0 AS negz,
		destIP / 0.0 AS inf, (len - len) / 0.0 AS nan, srcPort > 500 AS b,
		'say "hi" \ ok' AS s, NULL AS z FROM tap`
	wireGoldenFrames = 5000
	// wireGoldenSHA is the sha256 of the first wireGoldenFrames frames
	// (every byte from "id: 0" to the blank line ending frame 4999) as the
	// row-at-a-time encoder wrote them.
	wireGoldenSHA = "5b455a164616c1782c75ead28f5b72caca5b0cd2dafd943f0a1a2b9281d44eff"
)

// TestSSEWireGolden pins the bytes a subscriber receives: a blocking
// tenant, subscribed before the first packet, over the deterministic test
// feed. Any change to how rows reach the wire — batching, encoding, ids —
// that changes one byte of the stream fails here.
func TestSSEWireGolden(t *testing.T) {
	sv, base, start := newIdleTestServer(t, &testFeed{})
	resp, body := postJSON(t, base+"/queries", installRequest{
		Name: "golden", Query: wireGoldenQuery, Via: wireGoldenVia, Block: true,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install status = %d, body %v", resp.StatusCode, body)
	}
	st, hangUp := openRowsIdle(t, sv, base, "golden")
	defer hangUp()
	start()
	h := sha256.New()
	within(t, 60*time.Second, "the golden frames", func() {
		h.Write(readFrames(t, st.br, wireGoldenFrames))
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != wireGoldenSHA {
		t.Errorf("sha256 of the first %d frames = %s, want %s", wireGoldenFrames, got, wireGoldenSHA)
	}
}

// readFrames returns the raw bytes of the next n frames of an SSE stream.
func readFrames(t *testing.T, br *bufio.Reader, n int) []byte {
	t.Helper()
	var out []byte
	for n > 0 {
		line, err := br.ReadSlice('\n')
		if err != nil {
			t.Errorf("stream ended with %d frames to go: %v", n, err)
			return out
		}
		out = append(out, line...)
		if len(line) == 1 {
			n--
		}
	}
	return out
}
