"""Every reader of F against the checked-in digest of ``digest.py``."""

from digest import DIGEST_FILE, digest_lines, moved


def test_every_reader_of_F_matches_its_checked_in_digest():
    # a change that moves bits on purpose rewrites the file with digest.py
    # and lists the labels it prints in CHANGES.md
    changes = moved(DIGEST_FILE.read_text().splitlines(), digest_lines())
    assert not changes, "labels whose hash changed:\n" + "\n".join(changes)
