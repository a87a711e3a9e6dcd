import parachern


def test_every_export_resolves():
    for name in parachern.__all__:
        getattr(parachern, name)
