//! Grid geometry, directions and dimension-order (XY) routing arithmetic.
//!
//! The paper evaluates an 8×8 mesh with XY routing (Section VII-B); the
//! router model itself is radix-agnostic. [`Mesh`] here is a rectangular
//! `w × h` grid — the coordinate system every topology in
//! `noc-topology` (mesh, torus, irregular) embeds its nodes into. Route
//! computation for non-mesh topologies lives in that crate; this module
//! only carries the shared coordinate/id arithmetic and the classic XY
//! scheme.

use crate::ids::{PortId, RouterId};

/// A position in the 2-D grid. `(0, 0)` is the north-west corner; `x` grows
/// eastwards and `y` grows southwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (grows east).
    pub x: u8,
    /// Row (grows south).
    pub y: u8,
}

impl Coord {
    /// Construct a coordinate.
    #[inline]
    pub const fn new(x: u8, y: u8) -> Self {
        Coord { x, y }
    }

    /// Manhattan distance between two coordinates — the minimal hop count
    /// on a mesh (a torus can do better by wrapping).
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }

    /// The neighbouring coordinate one hop in `dir`, if it stays inside a
    /// `w × h` grid.
    pub fn step(self, dir: Direction, w: u8, h: u8) -> Option<Coord> {
        match dir {
            Direction::North if self.y > 0 => Some(Coord::new(self.x, self.y - 1)),
            Direction::South if self.y + 1 < h => Some(Coord::new(self.x, self.y + 1)),
            Direction::West if self.x > 0 => Some(Coord::new(self.x - 1, self.y)),
            Direction::East if self.x + 1 < w => Some(Coord::new(self.x + 1, self.y)),
            Direction::Local => Some(self),
            _ => None,
        }
    }

    /// [`Coord::step`] with wraparound at the grid edges (torus links).
    /// Never `None` except for nonsensical zero-sized grids.
    pub fn step_wrapping(self, dir: Direction, w: u8, h: u8) -> Coord {
        match dir {
            Direction::Local => self,
            Direction::North => Coord::new(self.x, if self.y == 0 { h - 1 } else { self.y - 1 }),
            Direction::South => Coord::new(self.x, if self.y + 1 == h { 0 } else { self.y + 1 }),
            Direction::West => Coord::new(if self.x == 0 { w - 1 } else { self.x - 1 }, self.y),
            Direction::East => Coord::new(if self.x + 1 == w { 0 } else { self.x + 1 }, self.y),
        }
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// The five ports of a grid router.
///
/// The numeric values double as the canonical [`PortId`] assignment:
/// `Local = 0`, `North = 1`, `East = 2`, `South = 3`, `West = 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Direction {
    /// The port connected to the local processing element / network interface.
    Local = 0,
    /// Towards decreasing `y`.
    North = 1,
    /// Towards increasing `x`.
    East = 2,
    /// Towards increasing `y`.
    South = 3,
    /// Towards decreasing `x`.
    West = 4,
}

impl Direction {
    /// All five directions, in `PortId` order.
    pub const ALL: [Direction; 5] = [
        Direction::Local,
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The canonical port id of this direction.
    #[inline]
    pub const fn port(self) -> PortId {
        PortId(self as u8)
    }

    /// The direction a flit *arrives from* when its upstream router sent it
    /// out through `self`: the link inverts the direction.
    #[inline]
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::Local => Direction::Local,
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Inverse of [`Direction::port`].
    pub fn from_port(port: PortId) -> Option<Direction> {
        Direction::ALL.get(port.index()).copied()
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Direction::Local => "local",
            Direction::North => "north",
            Direction::East => "east",
            Direction::South => "south",
            Direction::West => "west",
        };
        f.write_str(s)
    }
}

/// A rectangular `w × h` grid: bidirectional id/coordinate mapping and XY
/// routing. [`Mesh::new`] keeps the historical square `k × k` shape;
/// [`Mesh::rect`] builds rectangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    /// Width (number of columns; `x < w`).
    pub w: u8,
    /// Height (number of rows; `y < h`).
    pub h: u8,
}

impl Mesh {
    /// Construct a square mesh of side `k` (`w = h = k`).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: u8) -> Self {
        Mesh::rect(k, k)
    }

    /// Construct a rectangular `w × h` mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn rect(w: u8, h: u8) -> Self {
        assert!(w > 0 && h > 0, "mesh dimensions must be positive");
        Mesh { w, h }
    }

    /// Total number of routers (`w · h`).
    #[inline]
    pub fn len(&self) -> usize {
        self.w as usize * self.h as usize
    }

    /// Whether the mesh has no routers (never true: `w, h > 0` is enforced).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Router id of a coordinate (row-major numbering).
    #[inline]
    pub fn id_of(&self, c: Coord) -> RouterId {
        debug_assert!(c.x < self.w && c.y < self.h, "coordinate outside mesh");
        RouterId(c.y as u16 * self.w as u16 + c.x as u16)
    }

    /// Coordinate of a router id.
    #[inline]
    pub fn coord_of(&self, id: RouterId) -> Coord {
        debug_assert!((id.0 as usize) < self.len(), "router id outside mesh");
        Coord::new((id.0 % self.w as u16) as u8, (id.0 / self.w as u16) as u8)
    }

    /// Iterate over every coordinate of the mesh, row-major.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let (w, h) = (self.w, self.h);
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// Dimension-order (XY) routing: the output direction a packet at
    /// `here` must take to reach `dest`, fully resolving X before Y.
    ///
    /// XY routing is deterministic, minimal and deadlock-free on meshes,
    /// and — as the paper notes — requires no routing tables: the RC unit
    /// reduces to two comparators.
    ///
    /// ```
    /// use noc_types::{Coord, Direction, Mesh};
    /// let m = Mesh::new(8);
    /// assert_eq!(m.xy_route(Coord::new(1, 5), Coord::new(4, 2)), Direction::East);
    /// assert_eq!(m.xy_route(Coord::new(4, 5), Coord::new(4, 2)), Direction::North);
    /// assert_eq!(m.xy_route(Coord::new(4, 2), Coord::new(4, 2)), Direction::Local);
    /// ```
    #[inline]
    pub fn xy_route(&self, here: Coord, dest: Coord) -> Direction {
        if dest.x > here.x {
            Direction::East
        } else if dest.x < here.x {
            Direction::West
        } else if dest.y > here.y {
            Direction::South
        } else if dest.y < here.y {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// The full XY path from `src` to `dest`, inclusive of both endpoints.
    pub fn xy_path(&self, src: Coord, dest: Coord) -> Vec<Coord> {
        let mut path = vec![src];
        let mut here = src;
        while here != dest {
            let dir = self.xy_route(here, dest);
            here = here
                .step(dir, self.w, self.h)
                .expect("XY routing stepped outside the mesh");
            path.push(here);
        }
        path
    }

    /// The neighbour router reached by leaving `here` through `dir`, if any.
    pub fn neighbour(&self, here: Coord, dir: Direction) -> Option<RouterId> {
        if dir == Direction::Local {
            return None;
        }
        here.step(dir, self.w, self.h).map(|c| self.id_of(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_roundtrip() {
        let m = Mesh::new(8);
        for c in m.coords() {
            assert_eq!(m.coord_of(m.id_of(c)), c);
        }
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn rectangular_id_coord_roundtrip() {
        let m = Mesh::rect(3, 5);
        assert_eq!(m.len(), 15);
        for (ix, c) in m.coords().enumerate() {
            assert_eq!(m.id_of(c).index(), ix, "row-major numbering");
            assert_eq!(m.coord_of(m.id_of(c)), c);
        }
    }

    #[test]
    fn direction_port_mapping_roundtrips() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_port(d.port()), Some(d));
        }
        assert_eq!(Direction::from_port(PortId(5)), None);
    }

    #[test]
    fn opposite_is_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn xy_route_reaches_destination_in_manhattan_hops() {
        let m = Mesh::new(8);
        let src = Coord::new(1, 6);
        let dst = Coord::new(5, 2);
        let path = m.xy_path(src, dst);
        assert_eq!(path.len() as u32, src.manhattan(dst) + 1);
        assert_eq!(*path.first().unwrap(), src);
        assert_eq!(*path.last().unwrap(), dst);
    }

    #[test]
    fn xy_route_resolves_x_before_y() {
        let m = Mesh::new(4);
        assert_eq!(
            m.xy_route(Coord::new(0, 0), Coord::new(2, 2)),
            Direction::East
        );
        assert_eq!(
            m.xy_route(Coord::new(2, 0), Coord::new(2, 2)),
            Direction::South
        );
        assert_eq!(
            m.xy_route(Coord::new(3, 3), Coord::new(1, 1)),
            Direction::West
        );
        assert_eq!(
            m.xy_route(Coord::new(1, 3), Coord::new(1, 1)),
            Direction::North
        );
        assert_eq!(
            m.xy_route(Coord::new(1, 1), Coord::new(1, 1)),
            Direction::Local
        );
    }

    #[test]
    fn step_stays_inside_grid() {
        let (w, h) = (3, 3);
        assert_eq!(Coord::new(0, 0).step(Direction::North, w, h), None);
        assert_eq!(Coord::new(0, 0).step(Direction::West, w, h), None);
        assert_eq!(Coord::new(2, 2).step(Direction::South, w, h), None);
        assert_eq!(Coord::new(2, 2).step(Direction::East, w, h), None);
        assert_eq!(
            Coord::new(1, 1).step(Direction::East, w, h),
            Some(Coord::new(2, 1))
        );
    }

    #[test]
    fn step_bounds_each_dimension_independently() {
        // The historical bug class: a single `k` bound let x range over
        // the height (and vice versa) on rectangles.
        let (w, h) = (2, 6);
        assert_eq!(Coord::new(1, 0).step(Direction::East, w, h), None);
        assert_eq!(
            Coord::new(1, 4).step(Direction::South, w, h),
            Some(Coord::new(1, 5))
        );
        assert_eq!(Coord::new(1, 5).step(Direction::South, w, h), None);
    }

    #[test]
    fn step_wrapping_wraps_every_edge() {
        let (w, h) = (4, 3);
        assert_eq!(
            Coord::new(0, 0).step_wrapping(Direction::West, w, h),
            Coord::new(3, 0)
        );
        assert_eq!(
            Coord::new(3, 0).step_wrapping(Direction::East, w, h),
            Coord::new(0, 0)
        );
        assert_eq!(
            Coord::new(2, 0).step_wrapping(Direction::North, w, h),
            Coord::new(2, 2)
        );
        assert_eq!(
            Coord::new(2, 2).step_wrapping(Direction::South, w, h),
            Coord::new(2, 0)
        );
        // Interior steps agree with the bounded version.
        assert_eq!(
            Coord::new(1, 1).step_wrapping(Direction::East, w, h),
            Coord::new(1, 1).step(Direction::East, w, h).unwrap()
        );
    }

    #[test]
    fn neighbour_is_symmetric() {
        let m = Mesh::rect(5, 3);
        for c in m.coords() {
            for d in [
                Direction::North,
                Direction::East,
                Direction::South,
                Direction::West,
            ] {
                if let Some(n) = m.neighbour(c, d) {
                    let back = m.neighbour(m.coord_of(n), d.opposite());
                    assert_eq!(back, Some(m.id_of(c)));
                }
            }
        }
    }

    #[test]
    fn local_direction_has_no_neighbour() {
        let m = Mesh::new(4);
        assert_eq!(m.neighbour(Coord::new(1, 1), Direction::Local), None);
    }
}
