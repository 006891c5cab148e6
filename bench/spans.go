package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// span is one span of the program's own telemetry, read back from the
// JSONL that obs.Collector.WriteJSONL exports.
type span struct {
	Type   string  `json:"type"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Cat    string  `json:"cat"`
	TsUs   float64 `json:"ts_us"`
	DurUs  float64 `json:"dur_us"`
}

func (s span) interval() interval { return interval{s.TsUs, s.TsUs + s.DurUs} }

// readSpans extracts the span lines of a collector's JSONL export.
func readSpans(jsonl []byte) ([]span, error) {
	var out []span
	dec := json.NewDecoder(bytes.NewReader(jsonl))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("reading spans: %w", err)
		}
		if s.Type == "span" {
			out = append(out, s)
		}
	}
	return out, nil
}

type interval struct{ lo, hi float64 }

// unionLen is the length of the union of ivs: time covered by at least
// one interval, however many lanes overlap there.
func unionLen(ivs []interval) float64 {
	ivs = append([]interval(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, end := 0.0, 0.0
	for i, iv := range ivs {
		if i == 0 || iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// clip restricts ivs to within.
func clip(ivs []interval, within interval) []interval {
	var out []interval
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

// buildTimes is one build's wall time split by layer, in µs.
type buildTimes struct {
	wall float64
	// self sums, per phase name, each phase span's duration minus the
	// part of it its child phases cover.
	self map[string]float64
	// unattributed is the part of wall that no phase span, on any lane,
	// covers.
	unattributed float64
}

// busy is the build's attributed time: the self times of all phases.
func (b buildTimes) busy() float64 {
	t := 0.0
	for _, v := range b.self {
		t += v
	}
	return t
}

// analyzeBuilds splits the spans into builds, one per root "build"
// span, and computes each build's layer times. Span ids grow in
// creation order, so a parent always precedes its children.
func analyzeBuilds(spans []span) []buildTimes {
	root := map[int]int{}
	phaseKids := map[int][]interval{}
	for _, s := range spans {
		if s.Parent == 0 {
			root[s.ID] = s.ID
		} else {
			root[s.ID] = root[s.Parent]
		}
		if s.Cat == "phase" {
			phaseKids[s.Parent] = append(phaseKids[s.Parent], s.interval())
		}
	}
	var builds []buildTimes
	var extents []interval
	var phases [][]interval
	index := map[int]int{} // build span id -> its position in builds
	for _, s := range spans {
		switch {
		case s.Parent == 0 && s.Cat == "build":
			index[s.ID] = len(builds)
			builds = append(builds, buildTimes{wall: s.DurUs, self: map[string]float64{}})
			extents = append(extents, s.interval())
			phases = append(phases, nil)
		case s.Cat == "phase":
			b, ok := index[root[s.ID]]
			if !ok {
				continue
			}
			iv := s.interval()
			builds[b].self[s.Name] += s.DurUs - unionLen(clip(phaseKids[s.ID], iv))
			phases[b] = append(phases[b], iv)
		}
	}
	for b := range builds {
		builds[b].unattributed = builds[b].wall - unionLen(clip(phases[b], extents[b]))
	}
	return builds
}
