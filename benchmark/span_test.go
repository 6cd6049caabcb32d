package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Self time is duration minus the covered part of direct children:
// overlapping children are merged, children are clipped to the parent,
// and grandchildren count against their own parent only.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},     // overlaps a: union 10..50 = 40
		{Name: "late", Parent: 0, Start: ms(90), End: ms(120)}, // clipped to 90..100 = 10
		{Name: "deep", Parent: 1, Start: ms(12), End: ms(18)},  // child of a only
		{Name: "other", Parent: -1, Start: ms(200), End: ms(230)},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(50), ms(14), ms(30), ms(30), ms(6), ms(30)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	rows := selfTable(spans)
	if rows[0].Name != "root" || rows[0].Self != ms(50) || rows[0].Count != 1 {
		t.Errorf("largest self time first: got %+v", rows[0])
	}
	var buf bytes.Buffer
	if err := writeSelfTable(&buf, spans, ms(100)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "50.0%") {
		t.Errorf("table lacks root's 50%% share:\n%s", buf.String())
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 0, -1)
	if id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	tr.end(id)
	if tr.snapshot() != nil {
		t.Fatal("nil tracer has spans")
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7, -1)
	kid := tr.begin("Run", 0, 7, root)
	tr.end(kid)
	open := tr.begin("never closed", 1, 8, root)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[kid].Parent != root || spans[kid].Op != 7 || spans[open].Lane != 1 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans, map[string]string{"workload": "t"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Args["parent"] != root {
		t.Fatalf("unexpected trace events %+v", doc.TraceEvents)
	}
}
