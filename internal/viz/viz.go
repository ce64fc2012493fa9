// Package viz renders camera frames and run traces as ASCII for terminal
// inspection — the reproduction's stand-in for CARLA's spectator view.
package viz

import (
	"fmt"
	"strings"

	"diverseav/internal/sensor"
	"diverseav/internal/trace"
)

// ramp maps luminance to glyphs, dark to bright.
const ramp = " .:-=+*#%@"

// FrameASCII renders a camera frame as text, one character per pixel.
// Colored surfaces get class glyphs (vehicle/brake/road markings) so the
// scene is readable without color support.
func FrameASCII(f sensor.Frame) string {
	var b strings.Builder
	b.Grow((sensor.FrameW + 1) * sensor.FrameH)
	for v := 0; v < sensor.FrameH; v++ {
		for u := 0; u < sensor.FrameW; u++ {
			r, g, bl := f.At(u, v)
			fr, fg, fb := float64(r), float64(g), float64(bl)
			blue := fb - float64((fr+fg)/2)
			red := fr - float64((fg+fb)/2)
			green := fg - float64((fr+fb)/2)
			lum := (fr + fg + fb) / 3
			switch {
			case blue > 45 && lum < 140:
				b.WriteByte('B') // vehicle body (dark blue; the sky is bright)
			case red > 45:
				b.WriteByte('R') // brake light / stop bar
			case green > 12:
				b.WriteByte('~') // grass
			default:
				idx := int(lum / 256 * float64(len(ramp)))
				if idx >= len(ramp) {
					idx = len(ramp) - 1
				}
				b.WriteByte(ramp[idx])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TraceSummary renders a compact per-second table of a run trace.
func TraceSummary(tr *trace.Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s mode, seed %d): %s, %.1fs\n",
		tr.Scenario, tr.Mode, tr.Seed, tr.Outcome, tr.Duration())
	b.WriteString("t(s)     v     thr   brk   steer   cvip\n")
	step := int(tr.Hz)
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(tr.Steps); i += step {
		s := tr.Steps[i]
		fmt.Fprintf(&b, "%5.1f %6.2f  %.2f  %.2f  %+.3f  %6.1f\n",
			s.T, s.V, s.Throttle, s.Brake, s.Steer, s.CVIP)
	}
	return b.String()
}
