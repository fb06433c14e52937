package pdn

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"emvia/internal/cudd"
	"emvia/internal/spice"
)

// FromNetlist builds a Grid from an existing benchmark-style deck whose node
// names follow the n<layer>_<x>_<y> convention of the IBM power grid
// benchmarks. Resistors joining two layers at the same (x, y) are identified
// as via arrays and classified into Plus/T/L patterns from the coordinate
// extremes of the via population. The paper performs exactly this step on
// the benchmark decks (after giving the short-circuited vias their real
// array resistance, which the caller does by editing the deck or the
// netlist's resistor values before calling FromNetlist).
func FromNetlist(nl *spice.Netlist, spec GridSpec) (*Grid, error) {
	type coord struct{ x, y int }
	parse := func(name string) (layer int, c coord, ok bool) {
		if len(name) < 2 || (name[0] != 'n' && name[0] != 'N') {
			return 0, coord{}, false
		}
		parts := strings.Split(name[1:], "_")
		if len(parts) != 3 {
			return 0, coord{}, false
		}
		l, err1 := strconv.Atoi(parts[0])
		x, err2 := strconv.Atoi(parts[1])
		y, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return 0, coord{}, false
		}
		return l, coord{x, y}, true
	}

	g := &Grid{Spec: spec, Netlist: nl}
	minX, maxX := int(^uint(0)>>1), -int(^uint(0)>>1)
	minY, maxY := minX, maxX
	type viaCand struct {
		idx int
		c   coord
	}
	var cands []viaCand
	for i, r := range nl.Resistors {
		la, ca, oka := parse(r.A)
		lb, cb, okb := parse(r.B)
		if !oka || !okb || la == lb {
			continue
		}
		if ca != cb {
			continue // inter-layer but offset: not a via stack we track
		}
		cands = append(cands, viaCand{idx: i, c: ca})
		if ca.x < minX {
			minX = ca.x
		}
		if ca.x > maxX {
			maxX = ca.x
		}
		if ca.y < minY {
			minY = ca.y
		}
		if ca.y > maxY {
			maxY = ca.y
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("pdn: no via-array resistors found (node names must follow n<layer>_<x>_<y>)")
	}
	for _, vc := range cands {
		pat := patternFromExtremes(vc.c.x, vc.c.y, minX, maxX, minY, maxY)
		g.Vias = append(g.Vias, ViaInfo{
			IX:            vc.c.x,
			IY:            vc.c.y,
			Pattern:       pat,
			ResistorIndex: vc.idx,
		})
	}
	return g, nil
}

func patternFromExtremes(x, y, minX, maxX, minY, maxY int) cudd.Pattern {
	xEdge := x == minX || x == maxX
	yEdge := y == minY || y == maxY
	switch {
	case xEdge && yEdge:
		return cudd.LShape
	case xEdge || yEdge:
		return cudd.TShape
	default:
		return cudd.Plus
	}
}

// LoadDeck parses a benchmark deck and wraps it as a Grid.
func LoadDeck(r io.Reader, spec GridSpec) (*Grid, error) {
	nl, err := spice.Parse(r)
	if err != nil {
		return nil, err
	}
	return FromNetlist(nl, spec)
}
