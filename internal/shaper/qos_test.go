package shaper

import "testing"

func TestClassifyFlow(t *testing.T) {
	cases := []struct {
		domain string
		port   uint16
		want   Class
	}{
		{"", 53, ClassInteractive},
		{"", 123, ClassInteractive},
		{"ipv4-c1.oca.nflxvideo.net", 443, ClassVideo},
		{"rr2---sn-ab.googlevideo.com", 443, ClassVideo},
		{"video-cdn.sky.com", 80, ClassVideo},
		{"e1.whatsapp.net", 443, ClassInteractive},
		{"www.google.com", 443, ClassBulk},
		{"unknown.example", 443, ClassBulk},
		{"", 443, ClassBulk},
	}
	for _, c := range cases {
		if got := ClassifyFlow(c.domain, c.port); got != c.want {
			t.Errorf("ClassifyFlow(%q,%d)=%v, want %v", c.domain, c.port, got, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassInteractive.String() != "interactive" || ClassVideo.String() != "video" || ClassBulk.String() != "bulk" {
		t.Fatal("class names")
	}
}
