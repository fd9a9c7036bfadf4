"""Geometry ops against brute-force oracles, trajectory statistics, and
dataset round-trips."""

import struct

import numpy as np
import pytest

from latentdyn.data import (
    CameraIntrinsics,
    DataError,
    DatasetFormatError,
    PointCloud,
    SceneConfig,
    backproject_depth,
    crop_workspace,
    fps,
    fps_indices,
    generate_trajectory,
    preprocess_depth_sequence,
    read_dataset,
    trajectory_seed,
    write_dataset,
)
from latentdyn.data.synthetic import _sample_box_surface, subsample_trajectory
from latentdyn.numerics import RandomStream


def fps_oracle(points: np.ndarray, m: int, start: int) -> list[int]:
    """Greedy max-min selection recomputed from scratch each round, ties by
    lowest index (independent of the incremental implementation)."""
    selected = [start]
    while len(selected) < m:
        best_idx, best_val = None, -1.0
        for i in range(len(points)):
            d = min(((points[i] - points[s]) ** 2).sum() for s in selected)
            if d > best_val:
                best_idx, best_val = i, d
        selected.append(best_idx)
    return selected


class TestFps:
    def test_hand_case(self):
        pts = np.array([[0, 0, 0], [0.1, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=np.float64)
        out = fps(PointCloud(pts), 2, 0)
        assert np.array_equal(out.points, np.array([[0, 0, 0], [2, 0, 0]]))

    def test_m_equals_n_is_permutation(self):
        stream = RandomStream.derive(3, "fps")
        pts = stream.normal((9, 3))
        idx = fps_indices(pts, 9, 4)
        assert np.array_equal(np.sort(idx), np.arange(9))

    def test_m_too_large_rejected(self):
        with pytest.raises(DataError):
            fps(PointCloud(np.zeros((3, 3)) + np.arange(3)[:, None]), 4, 0)

    def test_oracle_equivalence_small_clouds(self):
        stream = RandomStream.derive(17, "fps-oracle")
        for case in range(40):
            n = int(stream.integers(2, 13, 1)[0])
            pts = stream.normal((n, 3))
            for m in range(1, n + 1):
                for start in range(n):
                    mine = list(fps_indices(pts, m, start))
                    assert mine == fps_oracle(pts, m, start), (case, n, m, start)

    def test_tie_breaking_lowest_index(self):
        # symmetric square: after picking corner 0, corners 1 and 2 tie at
        # the second pick once the far corner is taken
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=np.float64)
        idx = list(fps_indices(pts, 4, 0))
        assert idx == fps_oracle(pts, 4, 0)
        assert idx[1] == 3  # farthest corner first
        assert idx[2] == 1  # then the lower-index corner of the tie

    def test_min_pairwise_distance_beats_random_subsets(self):
        stream = RandomStream.derive(23, "fps-quality")
        pts = stream.normal((256, 3))

        def min_pairwise(sub):
            d = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(axis=2)
            return np.sqrt(d[np.triu_indices(len(sub), k=1)].min())

        chosen = pts[fps_indices(pts, 24, 0)]
        ours = min_pairwise(chosen)
        for _ in range(100):
            rand_idx = stream.permutation(256)[:24]
            assert ours >= min_pairwise(pts[rand_idx])


class TestBackprojection:
    def test_unit_intrinsics(self):
        depth = np.zeros((5, 5))
        depth[3, 2] = 2.0  # pixel (u=2, v=3)
        cloud = backproject_depth(depth, CameraIntrinsics(1, 1, 0, 0))
        assert np.allclose(cloud.points, [[4.0, 6.0, 2.0]])

    def test_all_holes_rejected(self):
        with pytest.raises(DataError):
            backproject_depth(np.zeros((4, 4)), CameraIntrinsics(1, 1, 0, 0))

    def test_realistic_intrinsics(self):
        depth = np.zeros((480, 640))
        depth[340, 420] = 1.0
        cloud = backproject_depth(depth, CameraIntrinsics(500, 500, 320, 240))
        assert np.allclose(cloud.points, [[0.2, 0.2, 1.0]])

    def test_negative_depth_rejected(self):
        depth = np.full((2, 2), -1.0)
        with pytest.raises(DataError):
            backproject_depth(depth, CameraIntrinsics(1, 1, 0, 0))

    def test_render_roundtrip(self):
        # project known points through the pinhole, then back-project
        intr = CameraIntrinsics(400.0, 380.0, 64.0, 48.0)
        pts = np.array([[0.05, -0.02, 0.8], [-0.1, 0.07, 1.3]])
        depth = np.zeros((96, 128))
        for x, y, z in pts:
            u = int(round(x * intr.fx / z + intr.cx))
            v = int(round(y * intr.fy / z + intr.cy))
            depth[v, u] = z
        cloud = backproject_depth(depth, intr)
        # u,v were rounded to the pixel grid; recover exactly the grid point
        for x, y, z in pts:
            u = round(x * intr.fx / z + intr.cx)
            v = round(y * intr.fy / z + intr.cy)
            expected = [(u - intr.cx) * z / intr.fx, (v - intr.cy) * z / intr.fy, z]
            d = np.abs(cloud.points - expected).sum(axis=1).min()
            assert d < 1e-6

    def test_intrinsics_validation(self):
        with pytest.raises(DataError):
            CameraIntrinsics(0.0, 1.0, 0.0, 0.0)


class TestCrop:
    def test_covering_box_keeps_everything(self):
        pts = RandomStream.derive(1, "crop").normal((20, 3)) * 0.1
        cloud = PointCloud(pts)
        out = crop_workspace(cloud, (-1, -1, -1), (1, 1, 1))
        assert np.array_equal(out.points, pts)

    def test_empty_crop_rejected(self):
        cloud = PointCloud(np.zeros((3, 3)) + 5.0)
        with pytest.raises(DataError):
            crop_workspace(cloud, (-1, -1, -1), (1, 1, 1))

    def test_half_space_split(self):
        cloud = PointCloud(np.array([[0.5, 0, 0], [2.0, 0, 0]]))
        out = crop_workspace(cloud, (-1, -1, -1), (1, 1, 1))
        assert out.n == 1
        assert np.allclose(out.points[0], [0.5, 0, 0])

    def test_boundary_points_excluded(self):
        cloud = PointCloud(np.array([[1.0, 0, 0], [0.5, 0, 0]]))
        out = crop_workspace(cloud, (-1, -1, -1), (1, 1, 1))
        assert out.n == 1

    def test_invalid_aabb(self):
        cloud = PointCloud(np.zeros((1, 3)))
        with pytest.raises(DataError):
            crop_workspace(cloud, (1, -1, -1), (-1, 1, 1))


class TestPreprocessPipeline:
    def test_skip_and_stride(self):
        intr = CameraIntrinsics(100, 100, 32, 32)
        stream = RandomStream.derive(9, "depth")
        depths = [0.5 + 0.5 * stream.uniform(64 * 64).reshape(64, 64) for _ in range(7)]
        clouds = preprocess_depth_sequence(depths, intr, (-2, -2, 0), (2, 2, 2),
                                           n_points=128, skip_frames=1, stride=2)
        assert len(clouds) == 3
        assert all(c.n == 128 for c in clouds)


def per_face_box_surface(stream: RandomStream, size: np.ndarray, n: int) -> np.ndarray:
    """Reference box-surface sampler: three uniform draws (face, u, v), then
    one masked assignment per face."""
    areas = np.array([size[1] * size[2], size[1] * size[2], size[0] * size[2],
                      size[0] * size[2], size[0] * size[1], size[0] * size[1]])
    cdf = np.cumsum(areas / areas.sum())
    face = np.searchsorted(cdf, stream.uniform(n), side="right")
    u = (stream.uniform(n) - 0.5)
    v = (stream.uniform(n) - 0.5)
    pts = np.empty((n, 3))
    half = size / 2.0
    for f in range(6):
        mask = face == f
        if not mask.any():
            continue
        axis = f // 2
        sign = 1.0 if f % 2 == 0 else -1.0
        other = [i for i in range(3) if i != axis]
        pts[mask, axis] = sign * half[axis]
        pts[mask, other[0]] = u[mask] * size[other[0]]
        pts[mask, other[1]] = v[mask] * size[other[1]]
    return pts


def reference_frames(cfg: SceneConfig, traj) -> list[np.ndarray]:
    """The trajectory's frames redrawn from its stream with the reference
    sampler: per object three uniform calls, then the table, then the noise.
    Layout comes from the descriptor; the pushed box's path from replaying
    the action draws, with each applied action's sign read from the record."""
    objects = traj.descriptor["objects"]
    stream = RandomStream.derive(traj.seed, "trajectory")
    stream.uniform(5 * len(objects))  # sizes (3 each), then centres (2 each)
    path = [np.array(objects[0]["center"])]
    for recorded in traj.actions:
        drawn = (stream.uniform(2) * 2.0 - 1.0) * cfg.action_max
        applied = np.copysign(np.abs(drawn), recorded)
        pos = path[-1][:2] + applied
        path.append(np.array([pos[0], pos[1], path[0][2]]))
    ws_lo = np.asarray(cfg.workspace_min, dtype=np.float64)
    table_span = np.asarray(cfg.workspace_max, dtype=np.float64)[:2] - ws_lo[:2]
    n_table = traj.descriptor["table"]["n_points"]
    frames = []
    for t in range(traj.length):
        parts = [per_face_box_surface(stream, np.array(o["size"]), o["n_points"])
                 + (path[t] if o["role"] == "actuated" else np.array(o["center"]))
                 for o in objects]
        table_xy = ws_lo[:2] + table_span * stream.uniform(2 * n_table).reshape(n_table, 2)
        parts.append(np.concatenate([table_xy, np.zeros((n_table, 1))], axis=1))
        pts = np.concatenate(parts, axis=0)
        pts[:, 2] += cfg.depth_noise_std * stream.normal(pts.shape[0])
        np.maximum(pts[:, 2], 0.0, out=pts[:, 2])
        frames.append(pts.astype(np.float32))
    return frames


class TestTrajectoryGeneration:
    def test_box_surface_matches_per_face_reference(self):
        sizes = RandomStream.derive(4, "sizes")
        for case in range(20):
            size = 0.01 + 0.1 * sizes.uniform(3)
            n = 1 + case * 7
            a = RandomStream.derive(case, "surface")
            b = RandomStream.derive(case, "surface")
            expected = per_face_box_surface(a, size, n)
            assert np.array_equal(_sample_box_surface(b.uniform(3 * n), size), expected)

    @pytest.mark.parametrize("n_distractors", [0, 3])
    def test_frames_match_per_face_reference_bitwise(self, n_distractors):
        cfg = SceneConfig(length=6, n_distractors=n_distractors)
        for seed in range(4):
            traj = generate_trajectory(cfg, trajectory_seed(seed, 0))
            expected = reference_frames(cfg, traj)
            for frame, ref in zip(traj.frames, expected):
                assert frame.points.dtype == ref.dtype
                assert np.array_equal(frame.points, ref)

    def test_determinism_bitwise(self, trajectories_equal):
        cfg = SceneConfig(n_points=96, length=6)
        a = generate_trajectory(cfg, 42)
        b = generate_trajectory(cfg, 42)
        assert trajectories_equal(a, b)

    def test_different_seeds_differ(self, trajectories_equal):
        cfg = SceneConfig(n_points=96, length=6)
        assert not trajectories_equal(generate_trajectory(cfg, 1), generate_trajectory(cfg, 2))

    def test_actions_shape_and_bounds(self):
        cfg = SceneConfig(n_points=96, length=12, action_max=0.025)
        traj = generate_trajectory(cfg, 7)
        assert traj.actions.shape == (11, 2)
        assert np.abs(traj.actions).max() <= 0.025 + 1e-7

    def test_static_scene_when_actions_zero(self):
        # reflection can only change signs, so a zero-amplitude bound is the
        # all-zero-actions configuration
        cfg = SceneConfig(n_points=96, length=5, action_max=1e-12)
        traj = generate_trajectory(cfg, 3)
        n_obj = traj.descriptor["objects"][0]["n_points"]
        centroids = [f.points[:n_obj].mean(axis=0) for f in traj.frames]
        for c in centroids[1:]:
            assert np.allclose(c[:2], centroids[0][:2], atol=2e-2)

    def test_centroid_displacement_matches_action(self):
        # per-step displacement of the actuated block vs the recorded push,
        # within 3 sigma/sqrt(n); the displacement of two i.i.d. resampled
        # centroids carries per-point noise from both frames, so its
        # per-point sigma is sqrt(sigma_t^2 + sigma_{t+1}^2)
        cfg = SceneConfig(n_points=512, length=8)
        failures = 0
        comparisons = 0
        for seed in (11, 12, 13):
            traj = generate_trajectory(cfg, seed)
            n_obj = traj.descriptor["objects"][0]["n_points"]
            pts = [f.points[:n_obj] for f in traj.frames]
            for t in range(traj.length - 1):
                delta = pts[t + 1].mean(axis=0) - pts[t].mean(axis=0)
                for ax in range(2):
                    sigma = np.sqrt(pts[t][:, ax].std() ** 2 + pts[t + 1][:, ax].std() ** 2)
                    tol = 3.0 * sigma / np.sqrt(n_obj)
                    comparisons += 1
                    if abs(delta[ax] - traj.actions[t, ax]) > tol:
                        failures += 1
        # true 3-sigma bound per comparison: isolated excursions are
        # statistically possible, a systematic offset is not
        assert comparisons == 42
        assert failures <= 1, f"{failures}/{comparisons} centroid checks out of band"

    def test_mean_displacement_error_is_centered(self):
        cfg = SceneConfig(n_points=512, length=40)
        traj = generate_trajectory(cfg, 29)
        n_obj = traj.descriptor["objects"][0]["n_points"]
        pts = [f.points[:n_obj] for f in traj.frames]
        errs = np.array([
            pts[t + 1].mean(axis=0)[:2] - pts[t].mean(axis=0)[:2] - traj.actions[t]
            for t in range(traj.length - 1)
        ])
        sigma = pts[0][:, 0].std()
        assert np.abs(errs.mean(axis=0)).max() < 4.0 * sigma / np.sqrt(n_obj * len(errs) / 2)

    def test_distractors_static(self):
        cfg = SceneConfig(n_points=256, length=6, n_distractors=2)
        traj = generate_trajectory(cfg, 21)
        objects = traj.descriptor["objects"]
        start = objects[0]["n_points"]
        for obj in objects[1:]:
            n = obj["n_points"]
            c0 = traj.frames[0].points[start:start + n].mean(axis=0)
            c_last = traj.frames[-1].points[start:start + n].mean(axis=0)
            sigma = traj.frames[0].points[start:start + n].std(axis=0).max()
            assert np.abs(c_last - c0).max() < 5.0 * sigma / np.sqrt(n)
            start += n

    def test_degenerate_config_rejected(self):
        with pytest.raises(DataError):
            generate_trajectory(SceneConfig(n_points=96, length=6, n_movable=0), 0)
        with pytest.raises(DataError):
            generate_trajectory(SceneConfig(n_points=2, length=6), 0)

    def test_actuated_stays_in_workspace(self):
        cfg = SceneConfig(n_points=128, length=60, action_max=0.08)
        traj = generate_trajectory(cfg, 5)
        n_obj = traj.descriptor["objects"][0]["n_points"]
        for f in traj.frames:
            c = f.points[:n_obj].mean(axis=0)
            assert np.all(c[:2] > np.array(cfg.workspace_min[:2]) - 1e-6)
            assert np.all(c[:2] < np.array(cfg.workspace_max[:2]) + 1e-6)


class TestSubsample:
    def test_stride_sums_actions(self):
        cfg = SceneConfig(n_points=96, length=9)
        traj = generate_trajectory(cfg, 2)
        sub = subsample_trajectory(traj, skip_frames=1, stride=3)
        assert sub.length == 3  # frames 1, 4, 7
        assert np.allclose(sub.actions[0], traj.actions[1:4].sum(axis=0))
        assert np.allclose(sub.actions[1], traj.actions[4:7].sum(axis=0))

    def test_noop_returns_same(self):
        cfg = SceneConfig(n_points=96, length=5)
        traj = generate_trajectory(cfg, 2)
        assert subsample_trajectory(traj) is traj


class TestDatasetRoundTrip:
    def test_roundtrip_bit_exact_many_configs(self, tmp_path, trajectories_equal):
        stream = RandomStream.derive(31, "roundtrip")
        for case in range(50):
            n_pts = int(stream.integers(16, 64, 1)[0])
            length = int(stream.integers(2, 9, 1)[0])
            cfg = SceneConfig(n_points=n_pts, length=length, n_distractors=1)
            trajs = [generate_trajectory(cfg, trajectory_seed(case, i)) for i in range(2)]
            path = tmp_path / f"ds_{case}.afro"
            write_dataset(trajs, path, config=cfg, seed=case)
            back = read_dataset(path)
            assert len(back) == 2
            for a, b in zip(trajs, back):
                assert trajectories_equal(a, b)

    def test_descriptors_restored_from_sidecar(self, tmp_path):
        cfg = SceneConfig(n_points=64, length=4)
        trajs = [generate_trajectory(cfg, 5)]
        path = tmp_path / "d.afro"
        write_dataset(trajs, path, config=cfg, seed=5)
        back = read_dataset(path)
        assert back[0].descriptor == trajs[0].descriptor

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.afro"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DatasetFormatError, match="magic"):
            read_dataset(path)

    def test_version_mismatch(self, tmp_path):
        cfg = SceneConfig(n_points=64, length=4)
        path = tmp_path / "v.afro"
        write_dataset([generate_trajectory(cfg, 5)], path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="version"):
            read_dataset(path)

    def test_truncated_file(self, tmp_path):
        cfg = SceneConfig(n_points=64, length=4)
        path = tmp_path / "t.afro"
        write_dataset([generate_trajectory(cfg, 5)], path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_dataset(path)

    def test_failed_write_leaves_previous_file(self, tmp_path):
        cfg = SceneConfig(n_points=64, length=4)
        path = tmp_path / "d.afro"
        write_dataset([generate_trajectory(cfg, 5)], path, config=cfg, seed=5)
        before = path.read_bytes(), (tmp_path / "d.afro.meta.json").read_bytes()

        class FailingTrajectory:
            @property
            def frames(self):
                raise OSError("disk full")

        # the header and the first trajectory are written before the failure
        with pytest.raises(OSError, match="disk full"):
            write_dataset([generate_trajectory(cfg, 6), FailingTrajectory()], path)
        assert (path.read_bytes(), (tmp_path / "d.afro.meta.json").read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.afro", "d.afro.meta.json"]

    @pytest.mark.parametrize("length, n_points", [
        (0xFFFFFFFF, 0xFFFFFFFF),  # the frame size overflows a C ssize_t
        (2 ** 12, 2 ** 20),        # a 48 GiB frame buffer
        (0, 64),                   # no frames, so -1 actions
    ])
    def test_corrupt_header_sizes_rejected(self, tmp_path, length, n_points):
        path = tmp_path / "h.afro"
        path.write_bytes(b"AFRO" + struct.pack("<II", 1, 1)
                         + struct.pack("<IIIQ", length, n_points, 2, 0) + bytes(64))
        with pytest.raises(DatasetFormatError):
            read_dataset(path)

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_dataset([], tmp_path / "e.afro")
