package main

import (
	"bufio"
	"io"
	"reflect"
	"strings"
	"testing"

	"activitytraj"
	"activitytraj/internal/server"
)

func TestParseQuery(t *testing.T) {
	vocab := activitytraj.NewVocabulary(map[string]int64{"coffee": 3, "museum": 2, "park": 1})
	id := func(name string) activitytraj.ActivityID {
		a, ok := vocab.ID(name)
		if !ok {
			t.Fatalf("vocabulary lost %q", name)
		}
		return a
	}
	pt := func(x, y float64, acts ...activitytraj.ActivityID) activitytraj.QueryPoint {
		return activitytraj.QueryPoint{Loc: activitytraj.Point{X: x, Y: y}, Acts: activitytraj.NewActivitySet(acts...)}
	}
	cases := []struct {
		name, in string
		want     []activitytraj.QueryPoint
		wantErr  string // substring; "" = must parse
	}{
		{"vocabulary names", "12.0,30.5:coffee,park;14.2,31:museum", []activitytraj.QueryPoint{
			pt(12, 30.5, id("coffee"), id("park")), pt(14.2, 31, id("museum"))}, ""},
		{"@N ids, unsorted and repeated", "1,2:@7,@1,@7", []activitytraj.QueryPoint{pt(1, 2, 1, 7)}, ""},
		{"names and ids mixed, blanks trimmed", " 1 , 2 : coffee , @9 ; ", []activitytraj.QueryPoint{pt(1, 2, id("coffee"), 9)}, ""},
		{"empty segments skipped", ";1,2:@3;;", []activitytraj.QueryPoint{pt(1, 2, 3)}, ""},
		{"negative and exponent coordinates", "-1.5,2e1:@0", []activitytraj.QueryPoint{pt(-1.5, 20, 0)}, ""},
		{"no points at all", " ; ", nil, "no query points"},
		{"point without activities", "1,2:", nil, "has no activities"},
		{"point without colon", "1,2", nil, "want x,y:acts"},
		{"location without comma", "12:@1", nil, "want x,y"},
		{"bad x", "east,2:@1", nil, `x "east"`},
		{"bad y", "1,north:@1", nil, `y "north"`},
		{"bad @N", "1,2:@one", nil, `activity id "@one"`},
		{"unknown name", "1,2:coffee,teleport", nil, `"teleport" not in vocabulary`},
	}
	for _, tc := range cases {
		q, err := parseQuery(tc.in, vocab)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: parseQuery(%q) error = %v, want one containing %q", tc.name, tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: parseQuery(%q): %v", tc.name, tc.in, err)
			continue
		}
		if !reflect.DeepEqual(q.Pts, tc.want) {
			t.Errorf("%s: parseQuery(%q) = %+v, want %+v", tc.name, tc.in, q.Pts, tc.want)
		}
	}
}

func TestReadSSEEvent(t *testing.T) {
	resync := server.EventJSON{Sub: 1, Seq: 1, Kind: "resync", TopK: []server.ResultJSON{{ID: 4, Dist: 0.5}}}
	join := server.EventJSON{Sub: 1, Seq: 2, Kind: "join", ID: 9, Dist: 0.25, TopK: []server.ResultJSON{{ID: 9, Dist: 0.25}, {ID: 4, Dist: 0.5}}}
	const resyncLine = `data: {"sub":1,"seq":1,"kind":"resync","topk":[{"id":4,"dist":0.5}]}`
	const joinLine = `data: {"sub":1,"seq":2,"kind":"join","id":9,"dist":0.25,"topk":[{"id":9,"dist":0.25},{"id":4,"dist":0.5}]}`
	cases := []struct {
		name, stream string
		want         []server.EventJSON
		wantErr      string // substring of the error that ends the stream
	}{
		{"two events", resyncLine + "\n\n" + joinLine + "\n\n", []server.EventJSON{resync, join}, "EOF"},
		{"CRLF line ends", resyncLine + "\r\n\r\n", []server.EventJSON{resync}, "EOF"},
		{"keep-alive comments and blank lines between events",
			": keep-alive\n\n\n" + resyncLine + "\n\n: keep-alive\n\n" + joinLine + "\n\n",
			[]server.EventJSON{resync, join}, "EOF"},
		{"event: and id: fields are ignored", "event: join\nid: 2\n" + joinLine + "\n\n", []server.EventJSON{join}, "EOF"},
		// The server writes one data line per event; a second one is decoded
		// over the first, so the fields it carries win.
		{"multi-line data", resyncLine + "\n" + `data: {"seq":7}` + "\n\n",
			[]server.EventJSON{{Sub: 1, Seq: 7, Kind: "resync", TopK: resync.TopK}}, "EOF"},
		{"payload split across data lines", "data: {\"sub\":1,\ndata: \"seq\":1}\n\n", nil, "bad event payload"},
		{"EOF mid-event", resyncLine + "\n\n" + joinLine + "\n", []server.EventJSON{resync}, "EOF"},
		{"EOF mid-line", resyncLine + "\n\n" + joinLine[:20], []server.EventJSON{resync}, "EOF"},
		{"not JSON", "data: hello\n\n", nil, "bad event payload"},
	}
	for _, tc := range cases {
		br := bufio.NewReader(strings.NewReader(tc.stream))
		var got []server.EventJSON
		var err error
		for {
			var ev server.EventJSON
			if ev, err = readSSEEvent(br); err != nil {
				break
			}
			got = append(got, ev)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: events = %+v, want %+v", tc.name, got, tc.want)
		}
		if !strings.Contains(err.Error(), tc.wantErr) || (tc.wantErr == "EOF" && err != io.EOF) {
			t.Errorf("%s: stream ended with %v, want %s", tc.name, err, tc.wantErr)
		}
	}
}
