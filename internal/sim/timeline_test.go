package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"testing"
	"time"

	"lasthop/internal/dist"
	"lasthop/internal/trace"
)

// digestTracer hashes every recorded event as one %+v line.
type digestTracer struct{ h hash.Hash }

func (d digestTracer) Record(e trace.Event) { fmt.Fprintf(d.h, "%+v\n", e) }

// timelineDigest is the SHA-256 of the whole timeline RunTraced records.
func timelineDigest(t *testing.T, sc Scenario, preset string) string {
	t.Helper()
	d := digestTracer{sha256.New()}
	if _, err := RunTraced(sc, goldenPresets(sc.Cfg.Max)[preset], d); err != nil {
		t.Fatalf("%s: %v", preset, err)
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// tieScenario lands one of every input and timer kind on the instant
// tie = 2h: the retraction of e0, the arrival of e3, a read, the end of
// one outage and the start of the next, e1's expiry and (under the
// "delayed" preset's 30-minute delay stage) e2's release. The order they
// fire in at that instant decides what the read returns (nothing, since
// it comes before the link's zero-time up window) and what crosses the
// link in that window (e1, which expires after the edges, but not e2,
// which leaves the delay stage after them). The retraction and the
// arrival both meet a down link, so their order shows in the timeline
// itself rather than in what is transferred.
func tieScenario() Scenario {
	const tie = 2 * time.Hour
	return Scenario{
		Cfg: Config{Horizon: dist.Day, EventsPerDay: 32, ReadsPerDay: 2, Max: 2, RankThreshold: 1},
		Arrivals: []Arrival{
			{At: 10 * time.Minute, Rank: 4, RetractAt: tie, RetractTo: 0},
			{At: tie - 30*time.Minute, Rank: 3, Lifetime: 30 * time.Minute},
			{At: tie - 30*time.Minute, Rank: 2},
			{At: tie, Rank: 5},
			{At: 5 * time.Hour, Rank: 1.5},
		},
		Reads:   []time.Duration{time.Hour, tie, 4 * time.Hour, 6 * time.Hour},
		Outages: []dist.Interval{{Start: time.Hour, End: tie}, {Start: tie, End: 3 * time.Hour}},
	}
}

// TestRunTracedTimelineDigests pins the order RunTraced fires everything
// in, not just the aggregates TestCompareGolden checks: every arrival,
// retraction, transfer, read and link transition of 48 60-day runs and of
// the hand-built tie scenario, hashed event by event. At one instant the
// scenario's inputs fire first (arrivals and retractions by arrival
// index, then reads, then outage edges interval by interval, start before
// end), and only then the timers the run armed for that instant. A
// mismatch prints the row's new digest.
func TestRunTracedTimelineDigests(t *testing.T) {
	want := map[string]string{
		"seed 1 churn false buffer":   "3833bd71787704d3788b8a399c16378d9b5809e3d55d9052e566a38130cd6dbd",
		"seed 1 churn false delayed":  "6c1cecb61034445e9b4abf83274b68cde05cac6f461a87b9072b53bf92f2f0c9",
		"seed 1 churn false ondemand": "69553e83205bcf2edf6c3ec1ebcf6def9b3d47a10f193177a9111fb96fbe75c9",
		"seed 1 churn false online":   "7368754a7b25192be3316783875c1916f975d39fd492e9364adfcbda6624c312",
		"seed 1 churn false rate":     "6fa5e52c3b465b9807c0afa59a24351c8c487f46cdd88e6b553f53fe2207aa6d",
		"seed 1 churn false unified":  "507b0b006c6ce0be6291a3f4eec2ac29cf68d2f91b0b5e428372701702b03560",
		"seed 1 churn true buffer":    "528939ad0cad61ad80f8eacc0e72bc34c1bec63844b9f5d169432ddd89ef7594",
		"seed 1 churn true delayed":   "7a5a5901e980ad68c73a80119f8e98898e26ab8f6b8087a6a65701692e3351b3",
		"seed 1 churn true ondemand":  "274be9af0e434ada5ddacd52c0f21cffe334e0cbec35a4fccc97da4d4968158c",
		"seed 1 churn true online":    "b005e951515380eab12b940efa1a7ccb68c7950d854b0eed2aca994fb0db180c",
		"seed 1 churn true rate":      "428992611efd77d865e6f261c2880618fae3f3adf0eeb56bfbcc00e932b89a9e",
		"seed 1 churn true unified":   "109ec8ae4fe7ae962a2feafb33005bb1cf19d43ff30ca9a2ec9193075f77b956",
		"seed 2 churn false buffer":   "d2bed8ed05123fb083d731433930e58b031cde2bea79b3c617f18ba0e70a444e",
		"seed 2 churn false delayed":  "9439c597ba9328776d4cf2652a50a8de033f89c1ab37c7655c831bad32d05b89",
		"seed 2 churn false ondemand": "409b71391f738cbc51cd6e3bfecee0d539ac252c06798cfab8bdb27556063d19",
		"seed 2 churn false online":   "d68a36e7a56a720f7636eeb54f104aebd96968875a3791771fe579b0393d0baa",
		"seed 2 churn false rate":     "9d693cb4cd63d30ee366fa00504ad9b2bd36ab77096a416296cd7814080f0f88",
		"seed 2 churn false unified":  "a1996a1897ae022e326b9031479c2af4e51fbe22083ac0fc0e001c4683be0432",
		"seed 2 churn true buffer":    "f2ca5ae0b317156a36d6e189d27163e2ef7f1e09f01e4030d25b88dbf90bcfd5",
		"seed 2 churn true delayed":   "1c8389fc1fce399a56eb8775f6fbfb53c28222e7f6b2b5b9f39321987dba07db",
		"seed 2 churn true ondemand":  "a7c97fd3476c56f40b2b3521ac56eca88d5441235ab96ea2706b9f6504b66649",
		"seed 2 churn true online":    "991bb5ab3b29f08aea08b921d721c592cca934947280a7a64dadf9430c98f8dc",
		"seed 2 churn true rate":      "c8d37545ce0de60dd5131b247c5492380bebb40ee0a07408d2939127ea0422b4",
		"seed 2 churn true unified":   "2e3f424f357c1b94bc30482ac2c22993161be3807ff34418bfbdcb6996485c13",
		"seed 3 churn false buffer":   "c8864b8213b25f89e3e6571cba8a590267b73bd0b665972f71c49906eb6aaeba",
		"seed 3 churn false delayed":  "de3fced5a527477586b7f32d5aeac71cc4b36ccae420803ad65ba7a46315e1be",
		"seed 3 churn false ondemand": "a90a36045b1a0029350cfb34afe78cf0562f16f284fe1bb088b518b9da3452e0",
		"seed 3 churn false online":   "34af08c64a96ad9456a375e451f2aae0610639e029b44f535e82350fce230c60",
		"seed 3 churn false rate":     "9139843a19130d13e1dfd20a56314cbd2d5e6982c59dca88a299cadbe34c1093",
		"seed 3 churn false unified":  "064fd1b8b94799c09ed35ecabc429d7dec71b769c49949361f4f6f3fc059e547",
		"seed 3 churn true buffer":    "889c3e745e7e8e99786ba987baa30ef298d089ffe1ea0381755208ec78b93242",
		"seed 3 churn true delayed":   "b83f0326ab81114f1caa0fa2c1cff4116ec14d6eb1d9aaff3d0c6d521e253afa",
		"seed 3 churn true ondemand":  "104ebbe9ac935bed4677d57ef354912bd8b4a157836bb99fc9399dcb9d98ef07",
		"seed 3 churn true online":    "d958dc7f04ad8874949149523f13b664e83ddc4e35e42922db71e7bdeab732e6",
		"seed 3 churn true rate":      "771e6160b363f70c8f91a85d1b8e5dec6e53ab33779db7da86110a0d6c8577e9",
		"seed 3 churn true unified":   "e2f9e8536173a59dd01012a081206365e0aa8e79bc1cbcaac27479897e7ac3a9",
		"seed 4 churn false buffer":   "f4c27c11bb5c1d3a9cc3393ab6031173c879749742bf65dad417ff4816b1cbaf",
		"seed 4 churn false delayed":  "0411155e3049d9767ce613b6f2148333ce85ab2c16e2b0fa77fd754bb5479d80",
		"seed 4 churn false ondemand": "3b2a862f1d97fb50e263431f121febc75128275da3d642b754d2f63d90d89a34",
		"seed 4 churn false online":   "3dd1e367858110007e567e9ee985ea210f86329d54dda03968f49e2bf86eaffe",
		"seed 4 churn false rate":     "1c8cf22b2b75ef8b6d9e4797eae369275784a295f81e905addb2a341f1ce583e",
		"seed 4 churn false unified":  "deb20bc5cfcee304654b1b6d3ef66f3a5f4fd442107704420ab9f70f4c5e13fc",
		"seed 4 churn true buffer":    "e9f0d973e7937257b7a137f1133bbe7a64828374cbfb2f9a6ac369898843d4ce",
		"seed 4 churn true delayed":   "b05293dfeacbc6390f0336bd192fe96eafd7155a127d12393cc03cb8d196aee2",
		"seed 4 churn true ondemand":  "fd700c4d3928c2a381c66eab4918f32137896805abd70389cd3f6ffc6a21d183",
		"seed 4 churn true online":    "8b30543b62951fdd3a0052b2b5ffede49627c041b8bee93b6a2d34ef68208d34",
		"seed 4 churn true rate":      "48aaca685f211c7df52306cc833929608d7e603b8da90248e69baedf66968007",
		"seed 4 churn true unified":   "a7e6845dd0cddb6b5c2704b014ad52752efcb840b358d681b9c26237758e3433",
		"tie buffer":                  "91fb951912eff291cab33297047862df079af34985b30e947ed55d316226baf0",
		"tie delayed":                 "d5e1be659ce4c3466b05c6af049f6dae4e7af74cd16b80a5a34818d17aadb8ed",
		"tie ondemand":                "eb2811007889dbdd7e06cea6e9341efc177232623533b14ef87e0523726ab880",
		"tie online":                  "6d3c8dd45ccc4fbd15b92accbfef20ea45983d4a772adc2dd1b5069d4b64d548",
		"tie rate":                    "91fb951912eff291cab33297047862df079af34985b30e947ed55d316226baf0",
		"tie unified":                 "91fb951912eff291cab33297047862df079af34985b30e947ed55d316226baf0",
	}
	got := map[string]string{}
	for seed := uint64(1); seed <= 4; seed++ {
		for _, churn := range []bool{false, true} {
			sc := mustScenario(t, goldenConfig(seed, churn))
			for preset := range goldenPresets(sc.Cfg.Max) {
				got[fmt.Sprintf("seed %d churn %v %s", seed, churn, preset)] = timelineDigest(t, sc, preset)
			}
		}
	}
	tie := tieScenario()
	for preset := range goldenPresets(tie.Cfg.Max) {
		got["tie "+preset] = timelineDigest(t, tie, preset)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%q: %q,", k, got[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, want %d", len(got), len(want))
	}
}
