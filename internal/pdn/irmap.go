package pdn

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// WriteIRDropSVG renders the lower-layer IR-drop map of the grid as an SVG
// heatmap (one cell per intersection, white = no drop, dark red = the worst
// observed drop), with the pads of the upper layer marked. The standard
// visualization for power-grid sign-off reviews.
func (g *Grid) WriteIRDropSVG(w io.Writer, widthPx int) error {
	if widthPx <= 0 {
		widthPx = 640
	}
	_, op, err := g.pristine(nil)
	if err != nil {
		return err
	}
	nx, ny := g.Spec.NX, g.Spec.NY
	drops := make([]float64, nx*ny)
	maxDrop := 0.0
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			name := nodeName(1, ix, iy)
			v, err := op.Voltage(name)
			if err != nil {
				return fmt.Errorf("pdn: grid node %s missing from netlist: %w", name, err)
			}
			d := g.Spec.Vdd - v
			if d < 0 {
				d = 0
			}
			drops[iy*nx+ix] = d
			if d > maxDrop {
				maxDrop = d
			}
		}
	}
	if maxDrop == 0 {
		maxDrop = 1 // all-white map rather than division by zero
	}
	cell := float64(widthPx) / float64(nx)
	heightPx := int(cell*float64(ny)) + 1

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		widthPx, heightPx, widthPx, heightPx)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			f := drops[iy*nx+ix] / maxDrop
			// White → dark red ramp.
			rCh := 255
			gb := int(math.Round(255 * (1 - f)))
			fmt.Fprintf(bw, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="rgb(%d,%d,%d)"/>`+"\n",
				float64(ix)*cell, float64(iy)*cell, cell, cell, rCh, gb, gb)
		}
	}
	// Mark pads (upper-layer voltage sources) as blue dots.
	for _, v := range g.Netlist.Voltages {
		_, ix, iy, ok := parseNodeName(v.Node)
		if !ok {
			continue
		}
		fmt.Fprintf(bw, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="#1f4e9c"/>`+"\n",
			(float64(ix)+0.5)*cell, (float64(iy)+0.5)*cell, cell*0.25)
	}
	fmt.Fprintf(bw, `<text x="4" y="14" font-size="12" font-family="sans-serif">worst IR drop %.1f mV (%.2f%% of Vdd)</text>`+"\n",
		maxDrop*1e3, 100*maxDrop/g.Spec.Vdd)
	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}
