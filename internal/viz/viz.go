// Package viz renders text-mode maps of the synthetic world and of
// discovered places — the reproduction's stand-in for the paper's map
// interfaces: the life-logging app's place map (Figure 4.a) and the
// study-wide visualization of all places visited by the participants
// (Figure 5.b).
package viz

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/geo"
	"repro/internal/world"
)

// Marker is a point to draw on the map.
type Marker struct {
	Pos   geo.LatLng
	Rune  rune
	Label string // used in the legend
}

// Map is a character-grid renderer over a geographic bounding box.
type Map struct {
	bounds        geo.Bounds
	width, height int
	grid          [][]rune
	legend        []string
	legendSeen    map[string]bool
}

// NewMap creates a renderer over the bounds with the given character
// dimensions. Width/height are clamped to sane minimums.
func NewMap(bounds geo.Bounds, width, height int) *Map {
	if width < 10 {
		width = 10
	}
	if height < 5 {
		height = 5
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = '·'
		}
	}
	return &Map{
		bounds:     bounds,
		width:      width,
		height:     height,
		grid:       grid,
		legendSeen: map[string]bool{},
	}
}

// cell maps a position to grid coordinates; ok is false outside the bounds.
func (m *Map) cell(p geo.LatLng) (row, col int, ok bool) {
	if !m.bounds.Contains(p) {
		return 0, 0, false
	}
	latSpan := m.bounds.MaxLat - m.bounds.MinLat
	lngSpan := m.bounds.MaxLng - m.bounds.MinLng
	if latSpan <= 0 || lngSpan <= 0 {
		return 0, 0, false
	}
	// Row 0 is the north edge.
	row = int((m.bounds.MaxLat - p.Lat) / latSpan * float64(m.height))
	col = int((p.Lng - m.bounds.MinLng) / lngSpan * float64(m.width))
	if row >= m.height {
		row = m.height - 1
	}
	if col >= m.width {
		col = m.width - 1
	}
	return row, col, true
}

// Draw places a marker. Markers outside the bounds are ignored. Later
// markers overwrite earlier ones in the same cell.
func (m *Map) Draw(mk Marker) {
	row, col, ok := m.cell(mk.Pos)
	if !ok {
		return
	}
	m.grid[row][col] = mk.Rune
	if mk.Label != "" {
		key := string(mk.Rune) + " " + mk.Label
		if !m.legendSeen[key] {
			m.legendSeen[key] = true
			m.legend = append(m.legend, key)
		}
	}
}

// Render writes the map and legend.
func (m *Map) Render(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("+" + strings.Repeat("-", m.width) + "+\n")
	for _, row := range m.grid {
		sb.WriteString("|")
		sb.WriteString(string(row))
		sb.WriteString("|\n")
	}
	sb.WriteString("+" + strings.Repeat("-", m.width) + "+\n")
	for _, l := range m.legend {
		sb.WriteString("  " + l + "\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders to a string.
func (m *Map) String() string {
	var sb strings.Builder
	_ = m.Render(&sb)
	return sb.String()
}

// venueRunes letter-codes venue kinds on the base map.
var venueRunes = map[world.VenueKind]rune{
	world.KindHome:       'h',
	world.KindWorkplace:  'w',
	world.KindMarket:     'M',
	world.KindRestaurant: 'R',
	world.KindCafe:       'C',
	world.KindGym:        'G',
	world.KindLibrary:    'L',
	world.KindAcademic:   'A',
	world.KindMall:       'S',
	world.KindPark:       'P',
	world.KindCinema:     'F',
	world.KindClinic:     '+',
}

// WorldMap renders the synthetic city: every venue as a letter keyed by
// kind.
func WorldMap(w *world.World, width, height int) *Map {
	m := NewMap(w.Bounds, width, height)
	for _, v := range w.Venues {
		r, ok := venueRunes[v.Kind]
		if !ok {
			r = '?'
		}
		m.Draw(Marker{Pos: v.Center, Rune: r, Label: v.Kind.String()})
	}
	return m
}

// PlacesMap overlays discovered places (as '*') on the world map — the
// Figure 5.b view of all places discovered during the study. Places without
// coordinates (not geolocated) are skipped and counted.
func PlacesMap(w *world.World, centers []geo.LatLng, width, height int) (*Map, int) {
	m := WorldMap(w, width, height)
	skipped := 0
	for _, c := range centers {
		if c.IsZero() {
			skipped++
			continue
		}
		m.Draw(Marker{Pos: c, Rune: '*', Label: "discovered place"})
	}
	return m, skipped
}

// Summary returns a one-line description of a map's extent.
func (m *Map) Summary() string {
	return fmt.Sprintf("%.1f km x %.1f km at %dx%d",
		geo.Distance(
			geo.LatLng{Lat: m.bounds.MinLat, Lng: m.bounds.MinLng},
			geo.LatLng{Lat: m.bounds.MinLat, Lng: m.bounds.MaxLng})/1000,
		geo.Distance(
			geo.LatLng{Lat: m.bounds.MinLat, Lng: m.bounds.MinLng},
			geo.LatLng{Lat: m.bounds.MaxLat, Lng: m.bounds.MinLng})/1000,
		m.width, m.height)
}
