//! A dense row-major 2-D grid, the storage behind every register plane.

use std::fmt;

/// A dense `rows × cols` grid.
#[derive(Clone, PartialEq, Eq)]
pub struct Grid<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Clone> Grid<T> {
    /// A grid filled with clones of `fill`.
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        Grid { rows, cols, data: vec![fill; rows * cols] }
    }
}

impl<T> Grid<T> {
    /// Builds a grid from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Grid { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable cell access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, row: usize, col: usize) -> &T {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[row * self.cols + col]
    }

    /// Mutable cell access.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut T {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[row * self.cols + col]
    }

    /// Sets a cell.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        *self.get_mut(row, col) = value;
    }

    /// Iterates `(row, col, &value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let cols = self.cols;
        self.data.iter().enumerate().map(move |(k, v)| (k / cols, k % cols, v))
    }

    /// The backing storage as one flat row-major slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[T] {
        assert!(row < self.rows, "row {row} out of {}", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }
}

impl<T: fmt::Debug> fmt::Debug for Grid<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Grid {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            writeln!(f, "  {:?}", self.row(i))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_indexing() {
        let mut g = Grid::filled(2, 3, 0i64);
        g.set(1, 2, 9);
        assert_eq!(*g.get(1, 2), 9);
        assert_eq!(*g.get(0, 0), 0);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.cols(), 3);
    }

    #[test]
    fn from_fn_row_major() {
        let g = Grid::from_fn(2, 2, |i, j| 10 * i + j);
        assert_eq!(g.row(0), &[0, 1]);
        assert_eq!(g.row(1), &[10, 11]);
    }

    #[test]
    fn iter_yields_coordinates() {
        let g = Grid::from_fn(2, 3, |i, j| (i, j));
        for (i, j, v) in g.iter() {
            assert_eq!(*v, (i, j));
        }
        assert_eq!(g.iter().count(), 6);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_panics() {
        let g = Grid::filled(2, 2, 0u8);
        let _ = g.get(2, 0);
    }

    #[test]
    fn debug_renders_rows() {
        let g = Grid::from_fn(2, 2, |i, j| i + j);
        let s = format!("{g:?}");
        assert!(s.contains("Grid 2x2"));
        assert!(s.contains("[1, 2]"));
    }
}
