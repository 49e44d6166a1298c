// Command floorplan places a set of reconfigurable regions on the ZedBoard
// fabric and renders the result as an ASCII map of the device.
//
// Regions are given as comma-separated CLB:BRAM:DSP triples, e.g.
//
//	floorplan -regions 800:0:20,400:10:0,1200:0:0 [-svg out.svg]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"resched/internal/arch"
	"resched/internal/floorplan"
	"resched/internal/resources"
)

func main() {
	var (
		regionsArg = flag.String("regions", "", "comma-separated CLB:BRAM:DSP region requirements (required)")
		svgPath    = flag.String("svg", "", "write the floorplan as SVG")
	)
	flag.Parse()
	if *regionsArg == "" {
		flag.Usage()
		os.Exit(2)
	}
	var regions []resources.Vector
	for _, spec := range strings.Split(*regionsArg, ",") {
		var clb, bram, dsp int
		if _, err := fmt.Sscanf(strings.TrimSpace(spec), "%d:%d:%d", &clb, &bram, &dsp); err != nil {
			fatal(fmt.Errorf("bad region spec %q: %v", spec, err))
		}
		regions = append(regions, resources.Vec(clb, bram, dsp))
	}

	a := arch.ZedBoard()
	fmt.Printf("fabric: %s (capacity %v)\n", a.Fabric, a.Fabric.Capacity())
	res, err := floorplan.Solve(a.Fabric, regions, floorplan.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("feasible=%v proven=%v nodes=%d elapsed=%v\n", res.Feasible, res.Proven, res.Nodes, res.Elapsed)
	if !res.Feasible {
		os.Exit(1)
	}
	if err := floorplan.Verify(a.Fabric, regions, res.Placements); err != nil {
		fatal(err)
	}
	for i, p := range res.Placements {
		fmt.Printf("  region %d: %v → %v\n", i, regions[i], p)
	}
	printMap(a, res.Placements)
	if *svgPath != "" {
		sf, err := os.Create(*svgPath)
		if err != nil {
			fatal(err)
		}
		if err := floorplan.WriteSVG(sf, a.Fabric, regions, res.Placements); err != nil {
			fatal(err)
		}
		if err := sf.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
}

// printMap draws the fabric with one character column per fabric column and
// one line per clock-region row.
func printMap(a *arch.Architecture, placements []floorplan.Placement) {
	f := a.Fabric
	glyph := func(i int) byte {
		return "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"[i%62]
	}
	fmt.Println()
	for y := 0; y < f.Rows; y++ {
		line := make([]byte, f.Width())
		for x := range line {
			switch f.Columns[x] {
			case resources.BRAM:
				line[x] = 'b'
			case resources.DSP:
				line[x] = 'd'
			default:
				line[x] = '.'
			}
		}
		for i, p := range placements {
			if y < p.Y0 || y >= p.Y1 {
				continue
			}
			for x := p.X0; x < p.X1; x++ {
				line[x] = glyph(i)
			}
		}
		fmt.Printf("row %d |%s|\n", y, line)
	}
	fmt.Println("legend: . CLB column, b BRAM column, d DSP column, digits/letters = placed regions")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floorplan:", err)
	os.Exit(1)
}
