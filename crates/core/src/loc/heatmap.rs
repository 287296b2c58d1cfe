//! 2D likelihood heatmaps — the `P(x, y)` of Fig. 6.

use rfly_channel::geometry::Point2;

/// A dense 2D grid of likelihood values.
#[derive(Debug, Clone)]
pub struct Heatmap {
    origin: Point2,
    resolution: f64,
    nx: usize,
    ny: usize,
    values: Vec<f64>,
}

impl Heatmap {
    /// Creates a zeroed heatmap with `nx × ny` cells of size
    /// `resolution` meters, whose cell (0,0) center sits at `origin`.
    pub fn new(origin: Point2, resolution: f64, nx: usize, ny: usize) -> Self {
        assert!(resolution > 0.0 && nx > 0 && ny > 0);
        Self {
            origin,
            resolution,
            nx,
            ny,
            values: vec![0.0; nx * ny],
        }
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell size, meters.
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// The world position of cell `(ix, iy)`'s center.
    pub fn position(&self, ix: usize, iy: usize) -> Point2 {
        Point2::new(
            self.origin.x + ix as f64 * self.resolution,
            self.origin.y + iy as f64 * self.resolution,
        )
    }

    /// Value at cell `(ix, iy)`.
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        self.values[iy * self.nx + ix]
    }

    /// Sets cell `(ix, iy)`.
    pub fn set(&mut self, ix: usize, iy: usize, v: f64) {
        self.values[iy * self.nx + ix] = v;
    }

    /// Iterates `(ix, iy, position, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Point2, f64)> + '_ {
        (0..self.ny).flat_map(move |iy| {
            (0..self.nx).map(move |ix| (ix, iy, self.position(ix, iy), self.get(ix, iy)))
        })
    }

    /// The global maximum: `(position, value)`.
    pub fn peak(&self) -> (Point2, f64) {
        #[expect(clippy::expect_used, reason = "new() asserts nx, ny > 0")]
        let (idx, v) = self
            .values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("heatmap is non-empty");
        (self.position(idx % self.nx, idx / self.nx), *v)
    }

    /// Normalizes so the maximum becomes 1 (no-op for an all-zero map).
    pub fn normalize(&mut self) {
        let max = self.values.iter().cloned().fold(0.0f64, f64::max);
        if max > 0.0 {
            for v in &mut self.values {
                *v /= max;
            }
        }
    }

    /// Renders an ASCII-art view (rows top-to-bottom = decreasing y),
    /// mapping normalized intensity to a character ramp — the textual
    /// stand-in for Fig. 6's color plots.
    pub fn render_ascii(&self, max_cols: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.values.iter().cloned().fold(0.0f64, f64::max);
        let stride = self.nx.div_ceil(max_cols.max(1)).max(1);
        let mut out = String::new();
        let mut iy = self.ny;
        while iy > 0 {
            let row = iy - 1;
            if (self.ny - iy).is_multiple_of(stride) {
                let mut ix = 0;
                while ix < self.nx {
                    let v = if max > 0.0 {
                        self.get(ix, row) / max
                    } else {
                        0.0
                    };
                    let c =
                        RAMP[((v * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)];
                    out.push(c as char);
                    ix += stride;
                }
                out.push('\n');
            }
            iy -= 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_and_positions() {
        let h = Heatmap::new(Point2::new(-1.0, 2.0), 0.5, 4, 3);
        assert_eq!(h.position(0, 0), Point2::new(-1.0, 2.0));
        assert_eq!(h.position(3, 2), Point2::new(0.5, 3.0));
        assert_eq!(h.nx(), 4);
        assert_eq!(h.ny(), 3);
    }

    #[test]
    fn set_get_peak() {
        let mut h = Heatmap::new(Point2::ORIGIN, 1.0, 5, 5);
        h.set(3, 1, 2.5);
        h.set(1, 4, 1.0);
        assert_eq!(h.get(3, 1), 2.5);
        let (pos, v) = h.peak();
        assert_eq!(pos, Point2::new(3.0, 1.0));
        assert_eq!(v, 2.5);
    }

    #[test]
    fn normalize_scales_to_unity() {
        let mut h = Heatmap::new(Point2::ORIGIN, 1.0, 3, 3);
        h.set(1, 1, 4.0);
        h.set(0, 0, 2.0);
        h.normalize();
        assert_eq!(h.get(1, 1), 1.0);
        assert_eq!(h.get(0, 0), 0.5);
        // Normalizing an all-zero map is a no-op.
        let mut z = Heatmap::new(Point2::ORIGIN, 1.0, 2, 2);
        z.normalize();
        assert_eq!(z.get(0, 0), 0.0);
    }

    #[test]
    fn iter_visits_every_cell() {
        let h = Heatmap::new(Point2::ORIGIN, 1.0, 4, 3);
        assert_eq!(h.iter().count(), 12);
    }

    #[test]
    fn ascii_render_shape() {
        let mut h = Heatmap::new(Point2::ORIGIN, 1.0, 8, 4);
        h.set(7, 0, 1.0);
        let art = h.render_ascii(8);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        // The hot cell is in the bottom row, rightmost column.
        assert!(lines[3].ends_with('@'));
        assert!(lines[0].chars().all(|c| c == ' '));
    }

    #[test]
    #[should_panic]
    fn zero_size_rejected() {
        let _ = Heatmap::new(Point2::ORIGIN, 1.0, 0, 3);
    }
}
