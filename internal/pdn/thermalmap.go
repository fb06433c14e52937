package pdn

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"emvia/internal/thermal"
)

// parseNodeName decodes the benchmark node convention n<layer>_<x>_<y>.
func parseNodeName(name string) (layer, x, y int, ok bool) {
	if len(name) < 2 || (name[0] != 'n' && name[0] != 'N') {
		return 0, 0, 0, false
	}
	parts := strings.Split(name[1:], "_")
	if len(parts) != 3 {
		return 0, 0, 0, false
	}
	l, err1 := strconv.Atoi(parts[0])
	xv, err2 := strconv.Atoi(parts[1])
	yv, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return l, xv, yv, true
}

// PowerMap solves the pristine grid and attributes the dissipated power to
// the intersection lattice: wire Joule power is split between the segment's
// endpoints, via-array Joule power goes to its intersection, and each load
// dissipates I·V at its node (the switching power the load current models).
// The returned vector is indexed j·NX+i in watts.
func (g *Grid) PowerMap() ([]float64, error) {
	_, op, err := g.pristine(nil)
	if err != nil {
		return nil, err
	}
	nx, ny := g.Spec.NX, g.Spec.NY
	power := make([]float64, nx*ny)
	deposit := func(x, y int, w float64) {
		if x >= 0 && x < nx && y >= 0 && y < ny {
			power[y*nx+x] += w
		}
	}
	for i, r := range g.Netlist.Resistors {
		ir := op.ResistorCurrent(i)
		if ir == 0 {
			continue
		}
		w := ir * ir * r.Ohms
		_, xa, ya, oka := parseNodeName(r.A)
		_, xb, yb, okb := parseNodeName(r.B)
		switch {
		case oka && okb:
			deposit(xa, ya, w/2)
			deposit(xb, yb, w/2)
		case oka:
			deposit(xa, ya, w)
		case okb:
			deposit(xb, yb, w)
		}
	}
	for _, s := range g.Netlist.Currents {
		_, x, y, ok := parseNodeName(s.A)
		if !ok {
			_, x, y, ok = parseNodeName(s.B)
		}
		if !ok {
			continue
		}
		v, err := op.Voltage(s.A)
		if err != nil {
			// Load pulls to ground; use the grid-side terminal.
			v, err = op.Voltage(s.B)
			if err != nil {
				continue
			}
		}
		deposit(x, y, math.Abs(s.Amps*v))
	}
	return power, nil
}

// ThermalProfile solves the compact thermal network for the grid's power
// map and returns the die temperature map plus the local temperature (°C)
// of every via array, in g.Vias order.
func (g *Grid) ThermalProfile(cfg thermal.Config) (*thermal.Map, []float64, error) {
	if cfg.NX == 0 && cfg.NY == 0 {
		cfg = thermal.DefaultConfig(g.Spec.NX, g.Spec.NY, g.Spec.Pitch)
	}
	if cfg.NX != g.Spec.NX || cfg.NY != g.Spec.NY {
		return nil, nil, fmt.Errorf("thermal: lattice %d×%d does not match grid %d×%d",
			cfg.NX, cfg.NY, g.Spec.NX, g.Spec.NY)
	}
	power, err := g.PowerMap()
	if err != nil {
		return nil, nil, err
	}
	tm, err := thermal.Solve(cfg, power)
	if err != nil {
		return nil, nil, err
	}
	temps := make([]float64, len(g.Vias))
	for k, v := range g.Vias {
		temps[k] = tm.TempAt(v.IX, v.IY)
	}
	return tm, temps, nil
}
