// Package sensor implements the simulated sensor suite: a software
// rasterizer for the three front-facing RGB cameras, a GPS+IMU unit, a
// LiDAR ray-caster, and the bit-diversity measurement used to
// characterize temporal data diversity (paper §V-A, Fig 5).
//
// The rasterizer is the CARLA-camera substitute. Its procedural road
// texture is anchored in world space and its per-frame sensor noise is
// seeded deterministically, so consecutive frames are semantically
// near-identical while differing at the bit level — the property
// DiverseAV exploits.
package sensor

// hash64 is a splitmix64-style avalanche hash used for world-anchored
// procedural texture and per-frame pixel noise. It must be fast (it runs
// per pixel) and deterministic.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash2 combines two keys.
func hash2(a, b uint64) uint64 { return hash64(a ^ hash64(b)) }

// noiseUnit maps a hash to a uniform value in [-1, 1).
func noiseUnit(h uint64) float64 {
	return float64(float64(int64(h>>11))/(1<<52)) - 1
}

// worldTexture returns a luminance perturbation in [-1, 1] anchored at a
// world position quantized to a 0.25 m grid. As the vehicle moves, the
// texture translates through the image, which is what makes consecutive
// frames bit-diverse in exactly the way real road surfaces are.
func worldTexture(wx, wy float64) float64 {
	qx := int64(wx * 4)
	qy := int64(wy * 4)
	return noiseUnit(hash2(uint64(qx), uint64(qy)))
}

// quantize converts a float intensity (0..255 scale) to a byte with
// clamping.
func quantize(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}
