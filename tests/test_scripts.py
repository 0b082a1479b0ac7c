import importlib.util
import pathlib

GALLERY = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "diagram_gallery.py"


def test_diagram_gallery_writes_its_four_files(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("diagram_gallery", GALLERY)
    gallery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gallery)
    assert gallery.main(["24135867", "--outdir", str(tmp_path)]) == 0
    names = ("input-arcs.svg", "theta-arcs.svg", "psi-dyck.svg", "gamma-arcs.svg")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        body = (tmp_path / name).read_text()
        assert body.startswith("<svg ") and body.endswith("</svg>\n"), name
    out = capsys.readouterr().out.splitlines()
    assert "theta image = 78534621  (crs 2)" in out
    assert out[-1] == f"wrote 4 files to {tmp_path}/"
