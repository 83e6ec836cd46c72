package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestSSEFrames(t *testing.T) {
	stream := ": ping\n\n" +
		"id: 0\nevent: row\ndata: {\"bytes\":40,\"cnt\":1,\"srcIP\":167773901,\"tb\":18}\n\n" +
		": ping\n\n" +
		"id: 1\r\nevent: row\r\ndata: {\"tb\":19}\r\n\r\n" +
		"event: end\ndata: {}\n\n"
	r := newSSEReader(strings.NewReader(stream))
	f, err := r.next()
	if err != nil || !f.hasID || f.id != 0 || f.event != "row" {
		t.Fatalf("frame 0: %+v %v", f, err)
	}
	if tb, ok := jsonUint(f.data, "tb"); !ok || tb != 18 {
		t.Errorf("tb = %d %v", tb, ok)
	}
	if ip, ok := jsonUint(f.data, "srcIP"); !ok || ip != 167773901 {
		t.Errorf("srcIP = %d %v", ip, ok)
	}
	if _, ok := jsonUint(f.data, "destIP"); ok {
		t.Error("found a key that is not there")
	}
	if want := len("id: 0\nevent: row\ndata: {\"bytes\":40,\"cnt\":1,\"srcIP\":167773901,\"tb\":18}\n\n"); f.size != want {
		t.Errorf("frame size %d, want %d", f.size, want)
	}
	f, err = r.next()
	if err != nil || f.id != 1 || string(f.data) != `{"tb":19}` {
		t.Fatalf("frame 1: %+v %q %v", f, f.data, err)
	}
	f, err = r.next()
	if err != nil || f.hasID || f.event != "end" {
		t.Fatalf("end frame: %+v %v", f, err)
	}
	if _, err = r.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestSSETruncatedAndMalformed(t *testing.T) {
	r := newSSEReader(strings.NewReader("id: 3\nevent: row\ndata: {\"tb\""))
	if _, err := r.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	r = newSSEReader(strings.NewReader("id: x\n\n"))
	if _, err := r.next(); err == nil {
		t.Error("a non-numeric id was accepted")
	}
	r = newSSEReader(strings.NewReader("retry 5\n\n"))
	if _, err := r.next(); err == nil {
		t.Error("an unknown field was accepted")
	}
	if _, ok := jsonUint([]byte(`{"tb":"x"}`), "tb"); ok {
		t.Error("a string value parsed as a number")
	}
}
