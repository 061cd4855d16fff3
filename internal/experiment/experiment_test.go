package experiment

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"lasthop/internal/core"
	"lasthop/internal/dist"
	"lasthop/internal/sim"
)

// quickOpts keeps experiment tests fast: short horizon, one replication.
func quickOpts() Options {
	return Options{Seed: 7, Horizon: 45 * dist.Day}
}

// last returns the y of the last point of a series.
func last(s Series) float64 { return s.Points[len(s.Points)-1].Y }

// first returns the y of the first point of a series.
func first(s Series) float64 { return s.Points[0].Y }

// TestRunCellsMatchesPerCell checks that grouping cells by scenario
// configuration changes no bit: cells of two interleaved configurations,
// each group sharing its scenarios and baselines, get exactly the waste
// and loss that averaging each cell on its own gives.
func TestRunCellsMatchesPerCell(t *testing.T) {
	opts := quickOpts()
	opts.Replications = 2
	opts = opts.withDefaults()
	var cells []cell
	for _, limit := range []int{1, 16, 256} {
		for _, frac := range []float64{0.3, 0.9} {
			cfg := opts.baseConfig()
			cfg.Max = 8
			cfg.Outage.Fraction = frac
			cells = append(cells, cell{cfg: cfg, policy: core.BufferConfig(sim.TopicName, 8, limit)})
		}
	}
	res, err := runCells(opts, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		waste, loss, _, err := sim.CompareAveraged(c.cfg, c.policy, opts.Replications)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res[i].waste) != math.Float64bits(waste) || math.Float64bits(res[i].loss) != math.Float64bits(loss) {
			t.Errorf("cell %d: waste %v loss %v, alone %v %v", i, res[i].waste, res[i].loss, waste, loss)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	fig, err := Figure1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 8 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Within each user-frequency curve, waste must not increase with Max
	// (more read capacity, less overflow) by more than noise.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y > s.Points[i-1].Y+8 {
				t.Errorf("%s: waste rose from %.1f to %.1f at Max=%v",
					s.Label, s.Points[i-1].Y, s.Points[i].Y, s.Points[i].X)
			}
		}
	}
	// uf=0.25, Max=1: consumption 0.25/day vs 32/day arrivals -> ~99% waste.
	if y := first(fig.Series[0]); y < 90 {
		t.Errorf("uf=0.25 Max=1 waste = %.1f%%, want ~99%%", y)
	}
	// uf=32, Max=64: consumption far above arrivals -> ~0 waste.
	lastSeries := fig.Series[len(fig.Series)-1]
	if y := last(lastSeries); y > 10 {
		t.Errorf("uf=32 Max=64 waste = %.1f%%, want ~0%%", y)
	}
	// The paper's formula waste ≈ 1 - uf*Max/ef at an interior point:
	// uf=1, Max=4 => 87.5%.
	for _, s := range fig.Series {
		if s.Label != "user frequency 1" {
			continue
		}
		for _, p := range s.Points {
			if p.X == 4 && (p.Y < 80 || p.Y > 95) {
				t.Errorf("uf=1 Max=4 waste = %.1f%%, want ~87.5%%", p.Y)
			}
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	fig, err := Figure2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 9 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		pts := s.Points
		// Loss ~0 with a perfect network, 0 again at total outage.
		if first(s) > 8 {
			t.Errorf("%s: loss at outage 0 = %.1f%%", s.Label, first(s))
		}
		if last(s) != 0 {
			t.Errorf("%s: loss at outage 1 = %.1f%%, want 0", s.Label, last(s))
		}
		// Loss at 0.99 outage must be substantial for low user
		// frequencies.
		if strings.HasSuffix(s.Label, " 0.25") || strings.HasSuffix(s.Label, " 0.5") {
			y := pts[len(pts)-2].Y // the 0.99 point
			if y < 40 {
				t.Errorf("%s: loss at 0.99 outage = %.1f%%, want high", s.Label, y)
			}
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	loss, waste, err := Figure3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(loss.Series) != 7 || len(waste.Series) != 7 {
		t.Fatalf("series = %d/%d", len(loss.Series), len(waste.Series))
	}
	for i, s := range loss.Series {
		// Loss decreases towards ~0 at large limits.
		if last(s) > 6 {
			t.Errorf("%s: loss at max limit = %.1f%%", s.Label, last(s))
		}
		// Waste grows with the limit and approaches the overflow cap
		// (~50%): at 65536 every arrival is eventually forwarded while
		// the user reads only half.
		ws := waste.Series[i]
		if last(ws) < 25 {
			t.Errorf("%s: waste at max limit = %.1f%%, want ~50%%", ws.Label, last(ws))
		}
		if first(ws) > 10 {
			t.Errorf("%s: waste at limit 1 = %.1f%%, want ~0", ws.Label, first(ws))
		}
	}
	// High-outage curves must show high loss at limit 1.
	lastLoss := loss.Series[len(loss.Series)-1]
	if first(lastLoss) < 20 {
		t.Errorf("outage 0.99: loss at limit 1 = %.1f%%, want high", first(lastLoss))
	}
}

func TestFigure4Shape(t *testing.T) {
	fig, err := Figure4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 7 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		// Short lifetimes: nearly everything expires unread.
		if first(s) < 80 {
			t.Errorf("%s: waste at 16s lifetimes = %.1f%%", s.Label, first(s))
		}
		// Waste decreases with lifetime (allowing noise).
		if last(s) > first(s) {
			t.Errorf("%s: waste grew with lifetime", s.Label)
		}
	}
	// High user frequency reads often enough that 3-day lifetimes waste
	// almost nothing.
	hi := fig.Series[len(fig.Series)-1]
	if last(hi) > 15 {
		t.Errorf("uf=64: waste at 3-day lifetimes = %.1f%%", last(hi))
	}
}

func TestFigure5Shape(t *testing.T) {
	fig, err := Figure5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Loss must rise from the short-lifetime end for at least the
	// mid-frequency curves (the hump of Fig. 5) and be bounded at both
	// extremes of the sweep for high frequencies.
	humps := 0
	for _, s := range fig.Series {
		maxY := 0.0
		for _, p := range s.Points {
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		if maxY > first(s)+10 && maxY > last(s)+5 {
			humps++
		}
	}
	if humps < 3 {
		t.Errorf("only %d series show the expiration-loss hump", humps)
	}
}

func TestFigure6Shape(t *testing.T) {
	waste, loss, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(waste.Series) != 5 || len(loss.Series) != 5 {
		t.Fatalf("series = %d/%d", len(waste.Series), len(loss.Series))
	}
	for i := range waste.Series {
		ws, ls := waste.Series[i], loss.Series[i]
		// Waste falls as the threshold grows (more held back).
		if last(ws) > first(ws)+5 {
			t.Errorf("%s: waste grew with threshold: %.1f -> %.1f", ws.Label, first(ws), last(ws))
		}
		// Loss climbs as the threshold grows (too high is as bad as no
		// prefetching at all).
		if last(ls)+5 < first(ls) {
			t.Errorf("%s: loss fell with threshold: %.1f -> %.1f", ls.Label, first(ls), last(ls))
		}
	}
	// For the longest lifetimes there is a low/low gap: at the 8-hour
	// threshold (the inter-read interval) both metrics should be small.
	longWaste := waste.Series[len(waste.Series)-1]
	longLoss := loss.Series[len(loss.Series)-1]
	for i, p := range longWaste.Points {
		if p.X == 16384 { // ~4.5h, inside the gap for 45-day lifetimes
			if p.Y > 10 || longLoss.Points[i].Y > 10 {
				t.Errorf("45-day curve at 4.5h threshold: waste=%.1f loss=%.1f, want both small",
					p.Y, longLoss.Points[i].Y)
			}
		}
	}
}

func TestAblationRateVsBuffer(t *testing.T) {
	loss, waste, err := AblationRateVsBuffer(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(loss.Series) != 2 || len(waste.Series) != 2 {
		t.Fatal("expected two policies")
	}
	// Both policies keep loss far below pure on-demand at heavy outage
	// (which would be tens of percent).
	for _, s := range loss.Series {
		if last(s) > 25 {
			t.Errorf("%s: loss at 0.9 outage = %.1f%%", s.Label, last(s))
		}
	}
}

func TestAblationDelay(t *testing.T) {
	fig, err := AblationDelay(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fixed := fig.Series[0]
	// No delay: most retractions hit the device. Long delay: few do.
	if first(fixed) < 30 {
		t.Errorf("no-delay vain transfers = %.1f%%, want high", first(fixed))
	}
	if last(fixed) > first(fixed)/2 {
		t.Errorf("4h delay vain transfers = %.1f%%, want far below %.1f%%", last(fixed), first(fixed))
	}
	// Auto delay lands below the no-delay level.
	auto := fig.Series[1]
	if first(auto) > first(fixed) {
		t.Errorf("auto delay (%.1f%%) worse than no delay (%.1f%%)", first(auto), first(fixed))
	}
}

func TestAblationAutoLimit(t *testing.T) {
	fig, err := AblationAutoLimit(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// The auto policy should never be dramatically worse than the best
	// fixed limit at any user frequency.
	auto := fig.Series[3]
	for i, p := range auto.Points {
		best := 1e18
		for _, s := range fig.Series[:3] {
			if s.Points[i].Y < best {
				best = s.Points[i].Y
			}
		}
		if p.Y > best+25 {
			t.Errorf("auto limit at uf=%g: %.1f vs best fixed %.1f", p.X, p.Y, best)
		}
	}
}

func TestExtensionMultiDevice(t *testing.T) {
	fig, err := ExtensionMultiDevice(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 4 {
			t.Fatalf("%s: %d points", s.Label, len(s.Points))
		}
		// Adding companion devices must not increase loss.
		if last(s) > first(s)+3 {
			t.Errorf("%s: loss grew with group size: %.1f -> %.1f", s.Label, first(s), last(s))
		}
	}
	// At 90% outage the group must recover a meaningful share of what a
	// lone device loses. (The floor stays high: with every link down 90%
	// of the time, all four devices are simultaneously unreachable ~66%
	// of the time, and short-lived messages arriving then are beyond any
	// caching policy.)
	high := fig.Series[1]
	if last(high) > 0.85*first(high) {
		t.Errorf("no cooperation benefit visible: 1 device %.1f%% vs 4 devices %.1f%%",
			first(high), last(high))
	}
}

func TestVerifyClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("claim verification runs many simulations")
	}
	opts := quickOpts()
	opts.Horizon = 120 * dist.Day // percentages need some runway
	claims, err := VerifyClaims(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) != 9 {
		t.Fatalf("claims = %d", len(claims))
	}
	var buf bytes.Buffer
	if err := RenderClaims(&buf, claims); err != nil {
		t.Fatal(err)
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: %s", c.ID, c.Measured)
		}
	}
	if !strings.Contains(buf.String(), "claims reproduced") {
		t.Error("render missing summary line")
	}
}

func TestRenderText(t *testing.T) {
	fig := Figure{
		ID: "demo", Title: "Demo", XLabel: "x", YLabel: "y%",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 10}, {X: 2, Y: 20}}},
			{Label: "b", Points: []Point{{X: 1, Y: 30}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "x", "a", "b", "10.0", "20.0", "30.0", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderJSON(t *testing.T) {
	fig := Figure{
		ID: "demo", Title: "Demo", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "a", Points: []Point{{X: 1, Y: 10}}}},
	}
	var buf bytes.Buffer
	if err := fig.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Figure
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.ID != "demo" || len(back.Series) != 1 || back.Series[0].Points[0].Y != 10 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestRenderCSV(t *testing.T) {
	fig := Figure{
		ID: "demo", Title: "Demo", XLabel: "x,axis", YLabel: "y",
		Series: []Series{
			{Label: `series "q"`, Points: []Point{{X: 1, Y: 10.5}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"x,axis"`) {
		t.Errorf("CSV header not escaped: %s", out)
	}
	if !strings.Contains(out, `"series ""q"""`) {
		t.Errorf("CSV label not escaped: %s", out)
	}
	if !strings.Contains(out, "10.500") {
		t.Errorf("CSV value missing: %s", out)
	}
}
