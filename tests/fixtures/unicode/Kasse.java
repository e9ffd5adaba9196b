package laden;

public class Kasse {
    private Größe artikel;
    private String währung = "€";

    public double summe() {
        return artikel.kaffee() + artikel.breite();
    }

    public String zeigen() {
        return währung + summe();
    }
}
