//! Borrowed row-major point sets.

/// A borrowed set of points stored row-major: each row is `width`
/// contiguous values of one flat slice, optionally restricted to a
/// selection of row indices and to a leading prefix of each row's
/// columns.
///
/// Batched consumers (GP prediction, acquisition scoring) read points
/// through this view, so a candidate matrix built once can be screened
/// whole and then scored on a subset without copying any row.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    data: &'a [f64],
    width: usize,
    /// Leading columns of each row the view exposes (`<= width`).
    cols: usize,
    pick: Option<&'a [usize]>,
}

impl<'a> Rows<'a> {
    /// Every row of the row-major `data`, `width` values per row.
    ///
    /// # Panics
    /// Panics if `data` is not a whole number of rows.
    pub fn new(data: &'a [f64], width: usize) -> Self {
        assert!(
            data.is_empty() || (width > 0 && data.len().is_multiple_of(width)),
            "{} values do not form rows of width {width}",
            data.len()
        );
        Rows {
            data,
            width,
            cols: width,
            pick: None,
        }
    }

    /// The first `cols` values of every row of this view — e.g. the
    /// configuration part of `config ++ context` rows, for a model that
    /// reads configurations only.
    ///
    /// # Panics
    /// Panics if `cols` exceeds the view's current row length.
    pub fn prefix(self, cols: usize) -> Self {
        assert!(
            cols <= self.cols,
            "prefix of {cols} columns from rows of {}",
            self.cols
        );
        Rows { cols, ..self }
    }

    /// The rows `pick[0], pick[1], …` of this view, in that order.
    ///
    /// # Panics
    /// Panics if the view is already a selection (selections index the
    /// underlying rows, so they do not compose).
    pub fn select(self, pick: &'a [usize]) -> Self {
        assert!(self.pick.is_none(), "cannot select from a selection");
        Rows {
            pick: Some(pick),
            ..self
        }
    }

    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        match self.pick {
            Some(pick) => pick.len(),
            None if self.width == 0 => 0,
            None => self.data.len() / self.width,
        }
    }

    /// Whether the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` of the view.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        let r = self.pick.map_or(i, |pick| pick[i]);
        &self.data[r * self.width..r * self.width + self.cols]
    }

    /// The rows in view order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a [f64]> {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// Consecutive sub-views of at most `size` rows each, in order.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn chunks(self, size: usize) -> Vec<Rows<'a>> {
        assert!(size > 0, "chunk size must be positive");
        match self.pick {
            Some(pick) => pick
                .chunks(size)
                .map(|part| Rows {
                    pick: Some(part),
                    ..self
                })
                .collect(),
            None if self.width == 0 => Vec::new(),
            None => self
                .data
                .chunks(size * self.width)
                .map(|part| Rows { data: part, ..self })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_view_walks_rows() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows = Rows::new(&data, 2);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(1), &[3.0, 4.0]);
        let all: Vec<&[f64]> = rows.iter().collect();
        assert_eq!(all, vec![&[1.0, 2.0][..], &[3.0, 4.0], &[5.0, 6.0]]);
    }

    #[test]
    fn selection_reorders_and_subsets() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let pick = [2, 0];
        let rows = Rows::new(&data, 2).select(&pick);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(0), &[5.0, 6.0]);
        assert_eq!(rows.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn chunks_cover_rows_in_order() {
        let data: Vec<f64> = (0..10).map(f64::from).collect();
        let pick = [4, 3, 2, 1, 0];
        for rows in [Rows::new(&data, 2), Rows::new(&data, 2).select(&pick)] {
            let parts = rows.chunks(2);
            assert_eq!(parts.iter().map(Rows::len).collect::<Vec<_>>(), [2, 2, 1]);
            let joined: Vec<&[f64]> = parts.iter().flat_map(|p| p.iter()).collect();
            assert_eq!(joined, rows.iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn prefix_keeps_leading_columns_through_select_and_chunks() {
        let data: Vec<f64> = (0..12).map(f64::from).collect();
        let rows = Rows::new(&data, 3).prefix(2);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows.row(1), &[3.0, 4.0]);
        let pick = [3, 1];
        let picked = rows.select(&pick);
        assert_eq!(
            picked.iter().collect::<Vec<_>>(),
            [&[9.0, 10.0][..], &[3.0, 4.0]]
        );
        for view in [rows, picked] {
            let joined: Vec<&[f64]> = view.chunks(3).iter().flat_map(|p| p.iter()).collect();
            assert_eq!(joined, view.iter().collect::<Vec<_>>());
        }
        assert_eq!(Rows::new(&data, 3).prefix(3).row(2), &[6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "prefix of 4 columns")]
    fn prefix_wider_than_rows_is_rejected() {
        let _ = Rows::new(&[1.0, 2.0, 3.0], 3).prefix(4);
    }

    #[test]
    fn empty_views() {
        assert!(Rows::new(&[], 0).is_empty());
        assert!(Rows::new(&[], 3).chunks(4).is_empty());
        assert!(Rows::new(&[1.0], 1).select(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "do not form rows")]
    fn ragged_data_is_rejected() {
        let _ = Rows::new(&[1.0, 2.0, 3.0], 2);
    }
}
